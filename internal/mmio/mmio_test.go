package mmio

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"gridqr/internal/matrix"
)

func TestRoundTrip(t *testing.T) {
	a := matrix.Random(7, 3, 1)
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(a, b, 0) {
		t.Fatal("round trip not exact")
	}
}

func TestReadArray(t *testing.T) {
	in := `%%MatrixMarket matrix array real general
% a comment
2 3
1
2
3
4
5
6
`
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Column-major: first column is 1,2.
	want := matrix.FromRows([][]float64{{1, 3, 5}, {2, 4, 6}})
	if !matrix.Equal(a, want, 0) {
		t.Fatalf("got %v want %v", a, want)
	}
}

func TestReadArraySymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix array real symmetric
2 2
1
2
3
`
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.FromRows([][]float64{{1, 2}, {2, 3}})
	if !matrix.Equal(a, want, 0) {
		t.Fatalf("got %v want %v", a, want)
	}
}

func TestReadCoordinate(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
3 3 2
1 1 5.5
3 2 -1
`
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 5.5 || a.At(2, 1) != -1 || a.At(1, 1) != 0 {
		t.Fatalf("coordinate read wrong: %v", a)
	}
}

func TestReadCoordinateSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 1
2 1 4
`
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != 4 || a.At(1, 0) != 4 {
		t.Fatal("symmetric entry not mirrored")
	}
}

func TestReadCoordinatePattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 1
2 1
`
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(1, 0) != 1 {
		t.Fatal("pattern entry not set to 1")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"not mm":          "hello\n1 2\n",
		"bad layout":      "%%MatrixMarket matrix weird real general\n1 1\n1\n",
		"bad field":       "%%MatrixMarket matrix array complex general\n1 1\n1\n",
		"bad symmetry":    "%%MatrixMarket matrix array real hermitian\n1 1\n1\n",
		"missing size":    "%%MatrixMarket matrix array real general\n",
		"short values":    "%%MatrixMarket matrix array real general\n2 2\n1\n2\n",
		"bad value":       "%%MatrixMarket matrix array real general\n1 1\nxyz\n",
		"bad index":       "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n",
		"short entries":   "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
		"symmetric rect":  "%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n",
		"coordinate dims": "%%MatrixMarket matrix coordinate real general\n2 2\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestWriteHeader(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, matrix.Eye(2))
	if !strings.HasPrefix(buf.String(), "%%MatrixMarket matrix array real general\n2 2\n") {
		t.Fatalf("bad output:\n%s", buf.String())
	}
}

func TestReadIntegerField(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate integer general
2 2 1
1 2 7
`
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != 7 {
		t.Fatal("integer entry wrong")
	}
}

// TestCoordinateDuplicatePolicy pins the duplicate-entry policy: Read
// sums repeated (i, j) entries, matching the scipy/Matrix Market
// convention.
func TestCoordinateDuplicatePolicy(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
3 2 3
1 1 2
1 1 3.5
2 2 -1
`
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 5.5 {
		t.Fatalf("Read duplicate sum = %g, want 5.5", a.At(0, 0))
	}

	sym := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
2 1 1
2 1 2
`
	s, err := Read(strings.NewReader(sym))
	if err != nil {
		t.Fatal(err)
	}
	if s.At(1, 0) != 3 || s.At(0, 1) != 3 {
		t.Fatalf("symmetric duplicate sum = %g/%g, want 3/3", s.At(1, 0), s.At(0, 1))
	}
}

// TestReadOverflowHeaders: headers whose m*n product overflows int must
// fail with an error, not panic or try a huge allocation.
func TestReadOverflowHeaders(t *testing.T) {
	cases := []string{
		"%%MatrixMarket matrix array real general\n4611686018427387904 4611686018427387904\n",
		"%%MatrixMarket matrix coordinate real general\n4611686018427387904 4611686018427387904 1\n1 1 1\n",
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("case %d: expected overflow error", i)
		} else if !strings.Contains(err.Error(), "overflow") {
			t.Fatalf("case %d: err = %v, want overflow", i, err)
		}
	}
}

// TestReadScannerError: a reader that fails partway through surfaces
// its own error, not a short-count message, in either layout.
func TestReadScannerError(t *testing.T) {
	for _, head := range []string{
		"%%MatrixMarket matrix array real general\n2 2\n1\n",
		"%%MatrixMarket matrix coordinate real general\n5 2 2\n1 1 1\n",
	} {
		_, err := Read(io.MultiReader(strings.NewReader(head), failReader{}))
		if !errors.Is(err, errDiskGone) {
			t.Fatalf("%q: got %v, want the reader's error", head, err)
		}
	}
}

var errDiskGone = errors.New("disk gone")

type failReader struct{}

func (failReader) Read([]byte) (int, error) { return 0, errDiskGone }
