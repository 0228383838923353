// Package mmio reads and writes dense real matrices in the Matrix Market
// exchange format (the `%%MatrixMarket matrix array real general` and
// `coordinate real general` variants), so the command-line tools can
// factor matrices produced by other numerical software.
package mmio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"gridqr/internal/matrix"
)

// header carries the parsed `%%MatrixMarket` banner fields.
type header struct {
	layout   string // array | coordinate
	field    string // real | integer | pattern
	symmetry string // general | symmetric
}

// parseHeader consumes the banner line plus comments and returns the
// header and the whitespace-split size line.
func parseHeader(sc *bufio.Scanner) (header, []string, error) {
	var h header
	if !sc.Scan() {
		return h, nil, fmt.Errorf("mmio: empty input")
	}
	banner := strings.Fields(strings.ToLower(sc.Text()))
	if len(banner) < 4 || banner[0] != "%%matrixmarket" || banner[1] != "matrix" {
		return h, nil, fmt.Errorf("mmio: not a MatrixMarket matrix header: %q", sc.Text())
	}
	h.layout = banner[2]
	h.field = banner[3]
	h.symmetry = "general"
	if len(banner) >= 5 {
		h.symmetry = banner[4]
	}
	switch h.layout {
	case "array", "coordinate":
	default:
		return h, nil, fmt.Errorf("mmio: unsupported layout %q", h.layout)
	}
	switch h.field {
	case "real", "integer", "pattern":
	default:
		return h, nil, fmt.Errorf("mmio: unsupported field %q", h.field)
	}
	switch h.symmetry {
	case "general", "symmetric":
	default:
		return h, nil, fmt.Errorf("mmio: unsupported symmetry %q", h.symmetry)
	}

	var sizeLine string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		sizeLine = line
		break
	}
	if sizeLine == "" {
		return h, nil, fmt.Errorf("mmio: missing size line")
	}
	return h, strings.Fields(sizeLine), nil
}

// checkDims validates a dimension pair against both sign and the m*n
// products the densifying reader allocates: a hostile or corrupt header
// like `9999999999999 9999999999999` must fail cleanly instead of
// overflowing int and panicking inside make.
func checkDims(m, n int) error {
	if m < 0 || n < 0 {
		return fmt.Errorf("mmio: negative dimensions %d×%d", m, n)
	}
	if n != 0 && m > math.MaxInt/n {
		return fmt.Errorf("mmio: dimensions %d×%d overflow", m, n)
	}
	return nil
}

// Read parses a Matrix Market stream into a dense matrix. Supported
// headers: `matrix array real general` (column-major dense) and
// `matrix coordinate real general` (sparse triplets, densified).
// Integer and pattern fields are promoted to real; symmetric storage is
// mirrored; duplicate coordinate entries are summed (the scipy/MM
// convention).
func Read(r io.Reader) (*matrix.Dense, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	h, dims, err := parseHeader(sc)
	if err != nil {
		return nil, err
	}

	if h.layout == "array" {
		if len(dims) != 2 {
			return nil, fmt.Errorf("mmio: array size line needs 2 fields, got %q", strings.Join(dims, " "))
		}
		m, err1 := strconv.Atoi(dims[0])
		n, err2 := strconv.Atoi(dims[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("mmio: bad dimensions %q", strings.Join(dims, " "))
		}
		if err := checkDims(m, n); err != nil {
			return nil, err
		}
		return readArray(sc, m, n, h.symmetry)
	}
	if len(dims) != 3 {
		return nil, fmt.Errorf("mmio: coordinate size line needs 3 fields, got %q", strings.Join(dims, " "))
	}
	m, err1 := strconv.Atoi(dims[0])
	n, err2 := strconv.Atoi(dims[1])
	nnz, err3 := strconv.Atoi(dims[2])
	if err1 != nil || err2 != nil || err3 != nil || nnz < 0 {
		return nil, fmt.Errorf("mmio: bad coordinate sizes %q", strings.Join(dims, " "))
	}
	if err := checkDims(m, n); err != nil {
		return nil, err
	}
	return readCoordinate(sc, m, n, nnz, h.field, h.symmetry)
}

func readArray(sc *bufio.Scanner, m, n int, symmetry string) (*matrix.Dense, error) {
	a := matrix.New(m, n)
	want := m * n
	if symmetry == "symmetric" {
		if m != n {
			return nil, fmt.Errorf("mmio: symmetric array must be square")
		}
		want = m * (m + 1) / 2
	}
	vals := make([]float64, 0, want)
	for sc.Scan() && len(vals) < want {
		for _, f := range strings.Fields(sc.Text()) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: bad value %q", f)
			}
			vals = append(vals, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mmio: %w", err)
	}
	if len(vals) < want {
		return nil, fmt.Errorf("mmio: expected %d values, got %d", want, len(vals))
	}
	idx := 0
	if symmetry == "symmetric" {
		for j := 0; j < n; j++ {
			for i := j; i < m; i++ {
				a.Set(i, j, vals[idx])
				a.Set(j, i, vals[idx])
				idx++
			}
		}
		return a, nil
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, vals[idx])
			idx++
		}
	}
	return a, nil
}

// coordEntry is one parsed coordinate triplet (0-based indices).
type coordEntry struct {
	i, j int
	v    float64
}

// parseCoordLine parses one coordinate data line against the header's
// field, validating 1-based indices against m×n.
func parseCoordLine(line string, m, n int, field string) (coordEntry, error) {
	f := strings.Fields(line)
	minFields := 3
	if field == "pattern" {
		minFields = 2
	}
	if len(f) < minFields {
		return coordEntry{}, fmt.Errorf("mmio: short entry %q", line)
	}
	i, err1 := strconv.Atoi(f[0])
	j, err2 := strconv.Atoi(f[1])
	if err1 != nil || err2 != nil || i < 1 || i > m || j < 1 || j > n {
		return coordEntry{}, fmt.Errorf("mmio: bad indices %q", line)
	}
	v := 1.0
	if field != "pattern" {
		var err error
		v, err = strconv.ParseFloat(f[2], 64)
		if err != nil {
			return coordEntry{}, fmt.Errorf("mmio: bad value %q", line)
		}
	}
	return coordEntry{i: i - 1, j: j - 1, v: v}, nil
}

func readCoordinate(sc *bufio.Scanner, m, n, nnz int, field, symmetry string) (*matrix.Dense, error) {
	a := matrix.New(m, n)
	read := 0
	for sc.Scan() && read < nnz {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		e, err := parseCoordLine(line, m, n, field)
		if err != nil {
			return nil, err
		}
		a.Set(e.i, e.j, a.At(e.i, e.j)+e.v)
		if symmetry == "symmetric" && e.i != e.j {
			a.Set(e.j, e.i, a.At(e.j, e.i)+e.v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mmio: %w", err)
	}
	if read < nnz {
		return nil, fmt.Errorf("mmio: expected %d entries, got %d", nnz, read)
	}
	return a, nil
}

// Write emits a dense matrix in `array real general` format with full
// float64 round-trip precision.
func Write(w io.Writer, a *matrix.Dense) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix array real general")
	fmt.Fprintf(bw, "%d %d\n", a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			fmt.Fprintf(bw, "%.17g\n", a.At(i, j))
		}
	}
	return bw.Flush()
}
