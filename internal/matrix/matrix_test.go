package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAt(t *testing.T) {
	a := New(3, 2)
	if a.Rows != 3 || a.Cols != 2 || a.Stride != 3 {
		t.Fatalf("bad shape: %+v", a)
	}
	for j := 0; j < 2; j++ {
		for i := 0; i < 3; i++ {
			if a.At(i, j) != 0 {
				t.Fatalf("not zeroed at (%d,%d)", i, j)
			}
		}
	}
	a.Set(2, 1, 7)
	if a.At(2, 1) != 7 {
		t.Fatal("set/get roundtrip failed")
	}
	if a.Data[1*3+2] != 7 {
		t.Fatal("column-major layout violated")
	}
}

func TestNewZeroDims(t *testing.T) {
	for _, d := range [][2]int{{0, 0}, {0, 3}, {3, 0}} {
		a := New(d[0], d[1])
		if a.Rows != d[0] || a.Cols != d[1] {
			t.Fatalf("bad zero-dim shape %v", d)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

func TestAtOutOfRangePanics(t *testing.T) {
	a := New(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", idx)
				}
			}()
			a.At(idx[0], idx[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if a.Rows != 2 || a.Cols != 3 {
		t.Fatalf("bad shape %d×%d", a.Rows, a.Cols)
	}
	if a.At(0, 1) != 2 || a.At(1, 2) != 6 {
		t.Fatalf("bad content: %v", a)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromColMajor(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	a := FromColMajor(3, 2, data)
	if a.At(0, 0) != 1 || a.At(2, 0) != 3 || a.At(0, 1) != 4 {
		t.Fatalf("bad wrap: %v", a)
	}
	a.Set(1, 1, 99)
	if data[4] != 99 {
		t.Fatal("FromColMajor must not copy")
	}
}

func TestViewSharesStorage(t *testing.T) {
	a := New(4, 4)
	v := a.View(1, 1, 2, 2)
	v.Set(0, 0, 5)
	if a.At(1, 1) != 5 {
		t.Fatal("view does not alias parent")
	}
	if v.Stride != a.Stride {
		t.Fatal("view stride must equal parent stride")
	}
}

func TestViewOfView(t *testing.T) {
	a := New(6, 6)
	a.Set(3, 3, 42)
	v := a.View(1, 1, 4, 4).View(2, 2, 2, 2)
	if v.At(0, 0) != 42 {
		t.Fatal("nested view misaligned")
	}
}

func TestViewOutOfRangePanics(t *testing.T) {
	a := New(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.View(1, 1, 3, 3)
}

func TestEmptyView(t *testing.T) {
	a := New(3, 3)
	v := a.View(3, 0, 0, 3)
	if v.Rows != 0 || v.Cols != 3 {
		t.Fatalf("bad empty view %d×%d", v.Rows, v.Cols)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Random(5, 3, 1)
	b := a.Clone()
	b.Set(0, 0, 1e9)
	if a.At(0, 0) == 1e9 {
		t.Fatal("clone aliases original")
	}
	if b.Stride != b.Rows {
		t.Fatal("clone must be compact")
	}
}

func TestCloneOfView(t *testing.T) {
	a := Random(6, 6, 2)
	v := a.View(2, 2, 3, 3)
	c := v.Clone()
	for j := 0; j < 3; j++ {
		for i := 0; i < 3; i++ {
			if c.At(i, j) != a.At(i+2, j+2) {
				t.Fatal("clone of view has wrong content")
			}
		}
	}
}

func TestCopyShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Copy(New(2, 2), New(3, 2))
}

func TestZeroOnView(t *testing.T) {
	a := Random(4, 4, 3)
	keep := a.At(0, 0)
	a.View(1, 1, 2, 2).Zero()
	if a.At(1, 1) != 0 || a.At(2, 2) != 0 {
		t.Fatal("view not zeroed")
	}
	if a.At(0, 0) != keep {
		t.Fatal("zero leaked outside view")
	}
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatalf("Eye(3) wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 0) != 3 || at.At(0, 1) != 4 {
		t.Fatalf("bad transpose %v", at)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		a := Random(4, 7, seed)
		return Equal(a, a.T().T(), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStack(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}, {5, 6}})
	s := Stack(a, b)
	want := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if !Equal(s, want, 0) {
		t.Fatalf("stack = %v want %v", s, want)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(New(2, 2), New(2, 3), 1e9) {
		t.Fatal("Equal must reject shape mismatch")
	}
}

func TestNormFrob(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 4}})
	if got := NormFrob(a); math.Abs(got-5) > 1e-15 {
		t.Fatalf("NormFrob = %g want 5", got)
	}
}

func TestNormFrobOverflowSafe(t *testing.T) {
	a := New(2, 1)
	a.Set(0, 0, 1e200)
	a.Set(1, 0, 1e200)
	got := NormFrob(a)
	want := 1e200 * math.Sqrt2
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("NormFrob overflowed: %g", got)
	}
}

func TestNormOneInfMax(t *testing.T) {
	a := FromRows([][]float64{{1, -2}, {-3, 4}})
	if NormOne(a) != 6 {
		t.Fatalf("NormOne = %g want 6", NormOne(a))
	}
	if NormInf(a) != 7 {
		t.Fatalf("NormInf = %g want 7", NormInf(a))
	}
	if NormMax(a) != 4 {
		t.Fatalf("NormMax = %g want 4", NormMax(a))
	}
}

func TestNormsOfZero(t *testing.T) {
	z := New(3, 3)
	if NormFrob(z) != 0 || NormOne(z) != 0 || NormInf(z) != 0 || NormMax(z) != 0 {
		t.Fatal("norms of zero matrix must be 0")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(10, 4, 42)
	b := Random(10, 4, 42)
	if !Equal(a, b, 0) {
		t.Fatal("Random not deterministic for equal seeds")
	}
	c := Random(10, 4, 43)
	if Equal(a, c, 0) {
		t.Fatal("Random identical across different seeds")
	}
}

func TestRandomRange(t *testing.T) {
	a := Random(50, 50, 7)
	for _, v := range a.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("Random value %g out of [-1,1)", v)
		}
	}
}

func TestRandomOrthoCols(t *testing.T) {
	q := RandomOrthoCols(40, 8, 11)
	if e := OrthoError(q); e > 1e-12 {
		t.Fatalf("orthogonality error %g", e)
	}
}

func TestWithCondition(t *testing.T) {
	a := WithCondition(30, 5, 1e6, 13)
	if a.Rows != 30 || a.Cols != 5 {
		t.Fatalf("bad shape %d×%d", a.Rows, a.Cols)
	}
	// Frobenius norm should be sqrt(sum sigma_k^2), with sigma_0 = 1
	// dominating; sanity check the magnitude.
	n := NormFrob(a)
	if n < 1 || n > math.Sqrt(5) {
		t.Fatalf("NormFrob = %g out of expected range", n)
	}
}

func TestOrthoErrorIdentity(t *testing.T) {
	if e := OrthoError(Eye(5)); e != 0 {
		t.Fatalf("OrthoError(I) = %g", e)
	}
}

func TestResidualQRExact(t *testing.T) {
	// A = Q*R with known Q (identity block) and R.
	r := FromRows([][]float64{{2, 1}, {0, 3}})
	q := New(4, 2)
	q.Set(0, 0, 1)
	q.Set(1, 1, 1)
	a := New(4, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 1, 3)
	if res := ResidualQR(a, q, r); res > 1e-16 {
		t.Fatalf("residual %g for exact factorization", res)
	}
}

func TestResidualQRDetectsError(t *testing.T) {
	a := Random(10, 3, 5)
	q := RandomOrthoCols(10, 3, 6)
	r := Eye(3)
	if res := ResidualQR(a, q, r); res < 0.1 {
		t.Fatalf("residual %g should be large for wrong factors", res)
	}
}

func TestIsUpperTriangular(t *testing.T) {
	r := FromRows([][]float64{{1, 2}, {0, 3}, {0, 0}})
	if !IsUpperTriangular(r, 0) {
		t.Fatal("upper triangular not recognized")
	}
	r.Set(2, 0, 1e-3)
	if IsUpperTriangular(r, 1e-6) {
		t.Fatal("lower element not detected")
	}
	if !IsUpperTriangular(r, 1e-2) {
		t.Fatal("tolerance not honored")
	}
}

func TestStringSmall(t *testing.T) {
	s := FromRows([][]float64{{1, 2}, {3, 4}}).String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestColAliases(t *testing.T) {
	a := New(3, 2)
	c := a.Col(1)
	c[2] = 9
	if a.At(2, 1) != 9 {
		t.Fatal("Col must alias storage")
	}
	if len(c) != 3 {
		t.Fatalf("Col length %d want 3", len(c))
	}
}

// Property: Stack(a,b) preserves both blocks exactly.
func TestStackProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := Random(3, 4, seed)
		b := Random(5, 4, seed+1)
		s := Stack(a, b)
		return Equal(s.View(0, 0, 3, 4), a, 0) && Equal(s.View(3, 0, 5, 4), b, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: NormFrob is invariant under transpose.
func TestNormFrobTransposeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		a := Random(6, 3, seed)
		return math.Abs(NormFrob(a)-NormFrob(a.T())) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGraded(t *testing.T) {
	a := Graded(10, 3, -100, 100, 1)
	// First row tiny, last row huge.
	if math.Abs(a.At(0, 0)) > 1e-99 {
		t.Fatalf("first row not tiny: %g", a.At(0, 0))
	}
	var lastMax float64
	for j := 0; j < 3; j++ {
		if v := math.Abs(a.At(9, j)); v > lastMax {
			lastMax = v
		}
	}
	if lastMax < 1e99 {
		t.Fatalf("last row not huge: %g", lastMax)
	}
	// The scaled Frobenius norm must not overflow.
	if n := NormFrob(a); math.IsInf(n, 0) || math.IsNaN(n) {
		t.Fatalf("NormFrob overflowed: %g", n)
	}
}

func TestRandomRowsPartitionInvariant(t *testing.T) {
	full := RandomRows(40, 3, 0, 9)
	// Reassemble from uneven pieces.
	parts := []int{0, 7, 8, 30, 40}
	for p := 0; p+1 < len(parts); p++ {
		lo, hi := parts[p], parts[p+1]
		piece := RandomRows(hi-lo, 3, lo, 9)
		if !Equal(piece, full.View(lo, 0, hi-lo, 3), 0) {
			t.Fatalf("piece [%d,%d) differs from the full matrix", lo, hi)
		}
	}
}

func TestRandomRowsRangeAndVariety(t *testing.T) {
	a := RandomRows(200, 4, 123, 5)
	seen := map[float64]bool{}
	for _, v := range a.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("value %g out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 700 {
		t.Fatalf("suspiciously few distinct values: %d", len(seen))
	}
	// Different seeds decorrelate.
	b := RandomRows(200, 4, 123, 6)
	if Equal(a, b, 0) {
		t.Fatal("seeds do not change the stream")
	}
}

func TestRandomAtDeterministic(t *testing.T) {
	if RandomAt(1, 5, 2) != RandomAt(1, 5, 2) {
		t.Fatal("RandomAt not deterministic")
	}
	if RandomAt(1, 5, 2) == RandomAt(1, 5, 3) {
		t.Fatal("adjacent entries identical")
	}
}

// setAsmKernel switches the assembly generator on or off (on only where
// the CPU has it), reporting the previous setting.
func setAsmKernel(on bool) (prev bool) {
	prev = useAsmKernel
	useAsmKernel = on && haveAsmKernel()
	return prev
}

// forEachFillPath runs f on the Go loop and, where the CPU has it, on the
// assembly kernel.
func forEachFillPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	paths := map[string]bool{"go": false}
	if haveAsmKernel() {
		paths["asm"] = true
	}
	for name, asm := range paths {
		t.Run(name, func(t *testing.T) {
			defer setAsmKernel(setAsmKernel(asm))
			f(t)
		})
	}
}

// checkFillRandomRows fills a rows×3 view (Stride > Rows) of a zeroed
// parent and checks every entry against RandomAt bit for bit, and that
// nothing outside the view was written.
func checkFillRandomRows(t *testing.T, rows, first, stride int, seed int64) {
	t.Helper()
	parent := New(rows+3, 5)
	a := parent.View(2, 1, rows, 3)
	FillRandomRows(a, first, stride, seed)
	for j := 0; j < parent.Cols; j++ {
		for i := 0; i < parent.Rows; i++ {
			got := parent.At(i, j)
			if inView := i >= 2 && i < 2+rows && j >= 1 && j < 4; !inView {
				if got != 0 {
					t.Fatalf("rows=%d first=%d stride=%d seed=%d: wrote outside the view at (%d,%d)",
						rows, first, stride, seed, i, j)
				}
				continue
			}
			if want := RandomAt(seed, first+(i-2)*stride, j-1); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("rows=%d first=%d stride=%d seed=%d: entry (%d,%d) = %v, RandomAt %v",
					rows, first, stride, seed, i-2, j-1, got, want)
			}
		}
	}
}

// TestFillRandomRowsIsRandomAt: the strided fill produces RandomAt's
// value for every entry, bit for bit, on both generator paths — every
// column length 0–67 (all four tails of the 4-row kernel), strides 1–5,
// offsets where the row term's <<20 wraps, negative and extreme seeds,
// views — and leaves the rest of the parent alone.
func TestFillRandomRowsIsRandomAt(t *testing.T) {
	forEachFillPath(t, func(t *testing.T) {
		for _, first := range []int{0, 17, -9, 1<<40 - 3, 1<<44 + 5} {
			for _, seed := range []int64{1, 9, -5, math.MaxInt64, math.MinInt64} {
				for stride := 1; stride <= 5; stride++ {
					for rows := 0; rows <= 67; rows++ {
						checkFillRandomRows(t, rows, first, stride, seed)
					}
				}
			}
		}
		checkFillRandomRows(t, 6, 3, 1<<45, 2)
		FillRandomRows(New(0, 4), 0, 1, 1) // no rows, no panic
	})
}

// FuzzFillRandomRows: any shape, offset, stride and seed fills the same
// bits on both paths as RandomAt.
func FuzzFillRandomRows(f *testing.F) {
	f.Add(uint8(13), 1<<40, uint8(3), int64(-7))
	f.Fuzz(func(t *testing.T, rows uint8, first int, stride uint8, seed int64) {
		for _, asm := range []bool{false, true} {
			prev := setAsmKernel(asm)
			checkFillRandomRows(t, int(rows), first, int(stride)+1, seed)
			setAsmKernel(prev)
		}
	})
}

// BenchmarkFillRandomRows times one 8192×64 fill (the kernel gate's
// shape) on each path.
func BenchmarkFillRandomRows(b *testing.B) {
	a := New(8192, 64)
	paths := map[string]bool{"go": false}
	if haveAsmKernel() {
		paths["asm"] = true
	}
	for name, asm := range paths {
		b.Run(name, func(b *testing.B) {
			defer setAsmKernel(setAsmKernel(asm))
			b.SetBytes(8 * 8192 * 64)
			for b.Loop() {
				FillRandomRows(a, 0, 1, 5)
			}
		})
	}
}

// The range panics of FromColMajor, Col and View carry an error whose
// message is formatted on demand (so the three inline); it must still
// name the offending indices and the shape.
func TestRangePanicMessages(t *testing.T) {
	a := New(2, 3)
	for _, tc := range []struct {
		f    func()
		want string
	}{
		{func() { a.View(1, 1, 2, 2) }, "matrix: view (1,1)+2×2 out of range 2×3"},
		{func() { a.View(0, -1, 1, 1) }, "matrix: view (0,-1)+1×1 out of range 2×3"},
		{func() { a.Col(3) }, "matrix: column 3 out of range 3"},
		{func() { FromColMajor(2, 2, make([]float64, 3)) }, "matrix: slice of length 3 cannot hold 2×2"},
	} {
		func() {
			defer func() {
				err, ok := recover().(error)
				if !ok || err.Error() != tc.want {
					t.Errorf("panic %v, want error %q", err, tc.want)
				}
			}()
			tc.f()
		}()
	}
}
