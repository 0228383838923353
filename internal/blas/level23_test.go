package blas

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"gridqr/internal/matrix"
)

func TestDgemvNoTrans(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := []float64{1, 1, 1}
	Dgemv(NoTrans, 2, a, []float64{1, 1}, 3, y)
	want := []float64{9, 17, 25}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Dgemv = %v want %v", y, want)
		}
	}
}

func TestDgemvTrans(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := []float64{0, 0}
	Dgemv(Trans, 1, a, []float64{1, 1, 1}, 0, y)
	if y[0] != 9 || y[1] != 12 {
		t.Fatalf("Dgemv^T = %v", y)
	}
}

func TestDger(t *testing.T) {
	a := matrix.New(2, 2)
	Dger(2, []float64{1, 2}, []float64{3, 4}, a)
	want := matrix.FromRows([][]float64{{6, 8}, {12, 16}})
	if !matrix.Equal(a, want, 0) {
		t.Fatalf("Dger = %v want %v", a, want)
	}
}

func TestDtrmvDtrsvRoundTrip(t *testing.T) {
	u := matrix.FromRows([][]float64{{2, 1, 3}, {0, 4, 5}, {0, 0, 6}})
	for _, trans := range []Transpose{NoTrans, Trans} {
		x := []float64{1, 2, 3}
		orig := append([]float64(nil), x...)
		Dtrmv(trans, u, x)
		Dtrsv(trans, u, x)
		for i := range x {
			if math.Abs(x[i]-orig[i]) > 1e-14 {
				t.Fatalf("trans=%v round trip %v != %v", trans, x, orig)
			}
		}
	}
}

// TestDtrmvBitwise: the column-walking Dtrmv rounds exactly as the
// row-by-row sum from zero it replaced (Dlarft's T, and through it every
// R, is pinned to that order) — signed zeros included: a row whose only
// product is −0 must still come out +0.
func TestDtrmvBitwise(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 64} {
		big := matrix.Random(n+2, n+1, int64(n))
		u := big.View(1, 1, n, n)
		x0 := matrix.Random(n, 1, 3).Col(0)
		x0[n-1] = 0
		u.Set(n-1, n-1, -1) // last row: (−1)·0 = −0
		for _, trans := range []Transpose{NoTrans, Trans} {
			want := make([]float64, n)
			for i := range want {
				var s float64
				for j := 0; j < n; j++ {
					if trans == NoTrans && j >= i {
						s += u.At(i, j) * x0[j]
					} else if trans == Trans && j <= i {
						s += u.At(j, i) * x0[j]
					}
				}
				want[i] = s
			}
			got := append([]float64(nil), x0...)
			Dtrmv(trans, u, got)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d trans=%v: x[%d] = %x, want %x", n, trans, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

func TestDgemmAllTransCombos(t *testing.T) {
	for _, ta := range []Transpose{NoTrans, Trans} {
		for _, tb := range []Transpose{NoTrans, Trans} {
			m, n, k := 7, 5, 6
			var a, b *matrix.Dense
			if ta == NoTrans {
				a = matrix.Random(m, k, 1)
			} else {
				a = matrix.Random(k, m, 1)
			}
			if tb == NoTrans {
				b = matrix.Random(k, n, 2)
			} else {
				b = matrix.Random(n, k, 2)
			}
			c := matrix.Random(m, n, 3)
			want := c.Clone()
			Dgemm(ta, tb, 1.5, a, b, 0.5, c)
			gemmRef(ta, tb, 1.5, a, b, 0.5, want)
			if !matrix.Equal(c, want, 1e-12) {
				t.Fatalf("Dgemm ta=%v tb=%v mismatch", ta, tb)
			}
		}
	}
}

func TestDgemmParallelPathMatchesSerial(t *testing.T) {
	// Big enough to cross gemmParallelThreshold.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m, n, k := 96, 96, 96
	a := matrix.Random(m, k, 4)
	b := matrix.Random(k, n, 5)
	c1 := matrix.New(m, n)
	c2 := matrix.New(m, n)
	Dgemm(NoTrans, NoTrans, 1, a, b, 0, c1)
	gemmSmall(NoTrans, NoTrans, 1, a, b, 0, c2, 0, n)
	if !matrix.Equal(c1, c2, 1e-12) {
		t.Fatal("parallel Dgemm differs from serial")
	}
}

func TestDgemmBetaZeroClearsNaN(t *testing.T) {
	a := matrix.Random(4, 4, 6)
	b := matrix.Random(4, 4, 7)
	c := matrix.New(4, 4)
	c.Set(0, 0, math.NaN())
	Dgemm(NoTrans, NoTrans, 1, a, b, 0, c)
	if math.IsNaN(c.At(0, 0)) {
		t.Fatal("beta=0 must overwrite, not scale, C")
	}
}

func TestDgemmOnViews(t *testing.T) {
	big := matrix.Random(10, 10, 8)
	a := big.View(1, 1, 4, 3)
	b := big.View(5, 2, 3, 2)
	c := matrix.New(4, 2)
	want := matrix.New(4, 2)
	Dgemm(NoTrans, NoTrans, 1, a, b, 0, c)
	gemmRef(NoTrans, NoTrans, 1, a, b, 0, want)
	if !matrix.Equal(c, want, 1e-13) {
		t.Fatal("Dgemm wrong on strided views")
	}
}

func TestDtrmmLeft(t *testing.T) {
	u := matrix.FromRows([][]float64{{2, 1}, {0, 3}})
	for _, trans := range []Transpose{NoTrans, Trans} {
		for _, unit := range []bool{false, true} {
			b := matrix.Random(2, 3, 9)
			got := b.Clone()
			Dtrmm(Left, trans, unit, 1.5, u, got)
			// Reference: build full triangular matrix and gemm.
			tm := u.Clone()
			tm.Set(1, 0, 0)
			if unit {
				tm.Set(0, 0, 1)
				tm.Set(1, 1, 1)
			}
			want := matrix.New(2, 3)
			gemmRef(trans, NoTrans, 1.5, tm, b, 0, want)
			if !matrix.Equal(got, want, 1e-13) {
				t.Fatalf("Dtrmm Left trans=%v unit=%v: got %v want %v", trans, unit, got, want)
			}
		}
	}
}

// trmmLeftRef is the row-by-row triangular multiply the QR kernels'
// bits were first pinned to: element i is the diagonal term plus
// T[i,l]·x[l] in increasing l, each product and sum rounded once.
func trmmLeftRef(trans Transpose, unit bool, alpha float64, t, b *matrix.Dense) {
	n := t.Rows
	for j := 0; j < b.Cols; j++ {
		col := b.Col(j)
		if trans == NoTrans {
			for i := 0; i < n; i++ {
				s := col[i]
				if !unit {
					s = t.At(i, i) * col[i]
				}
				for l := i + 1; l < n; l++ {
					s += t.At(i, l) * col[l]
				}
				col[i] = alpha * s
			}
			continue
		}
		for i := n - 1; i >= 0; i-- {
			s := col[i]
			if !unit {
				s = t.At(i, i) * col[i]
			}
			for l := 0; l < i; l++ {
				s += t.At(l, i) * col[l]
			}
			col[i] = alpha * s
		}
	}
}

// TestDtrmmLeftBitwise: the column-walking base case rounds exactly as
// the row-by-row reference, on strided views — the forward QR path runs through it, so a reordered sum would
// move every R.
func TestDtrmmLeftBitwise(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 33, 64} {
		for _, cols := range []int{1, 5} {
			big := matrix.Random(n+3, n+2, int64(n))
			tri := big.View(1, 2, n, n) // stride n+3; the lower triangle holds garbage
			for _, trans := range []Transpose{NoTrans, Trans} {
				for _, unit := range []bool{false, true} {
					for _, alpha := range []float64{1, -1, 1.5} {
						want := matrix.Random(n, cols, int64(cols))
						got := matrix.Random(n+1, cols, 77).View(1, 0, n, cols)
						matrix.Copy(got, want)
						trmmLeftRef(trans, unit, alpha, tri, want)
						Dtrmm(Left, trans, unit, alpha, tri, got)
						for j := 0; j < cols; j++ {
							for i, w := range want.Col(j) {
								if g := got.Col(j)[i]; math.Float64bits(g) != math.Float64bits(w) {
									t.Fatalf("n=%d cols=%d trans=%v unit=%v alpha=%g: (%d,%d) = %x, want %x",
										n, cols, trans, unit, alpha, i, j, math.Float64bits(g), math.Float64bits(w))
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestDtrmmRight(t *testing.T) {
	u := matrix.FromRows([][]float64{{2, 1, -1}, {0, 3, 2}, {0, 0, 4}})
	for _, trans := range []Transpose{NoTrans, Trans} {
		for _, unit := range []bool{false, true} {
			b := matrix.Random(2, 3, 10)
			got := b.Clone()
			Dtrmm(Right, trans, unit, 2, u, got)
			tm := u.Clone()
			if unit {
				for i := 0; i < 3; i++ {
					tm.Set(i, i, 1)
				}
			}
			want := matrix.New(2, 3)
			gemmRef(NoTrans, trans, 2, b, tm, 0, want)
			if !matrix.Equal(got, want, 1e-13) {
				t.Fatalf("Dtrmm Right trans=%v unit=%v mismatch", trans, unit)
			}
		}
	}
}

func TestDtrsmInvertsDtrmm(t *testing.T) {
	u := matrix.FromRows([][]float64{{2, 1, -1}, {0, 3, 2}, {0, 0, 4}})
	for _, side := range []Side{Left, Right} {
		for _, trans := range []Transpose{NoTrans, Trans} {
			for _, unit := range []bool{false, true} {
				var b *matrix.Dense
				if side == Left {
					b = matrix.Random(3, 4, 11)
				} else {
					b = matrix.Random(4, 3, 11)
				}
				orig := b.Clone()
				Dtrmm(side, trans, unit, 1, u, b)
				Dtrsm(side, trans, unit, 1, u, b)
				if !matrix.Equal(b, orig, 1e-12) {
					t.Fatalf("Dtrsm does not invert Dtrmm: side=%v trans=%v unit=%v", side, trans, unit)
				}
			}
		}
	}
}

func TestDtrsmAlpha(t *testing.T) {
	u := matrix.FromRows([][]float64{{2, 0}, {0, 2}})
	b := matrix.FromRows([][]float64{{4}, {8}})
	Dtrsm(Left, NoTrans, false, 2, u, b)
	if b.At(0, 0) != 4 || b.At(1, 0) != 8 {
		t.Fatalf("Dtrsm alpha wrong: %v", b)
	}
}

func TestDsyrk(t *testing.T) {
	a := matrix.Random(6, 3, 12)
	c := matrix.New(3, 3)
	Dsyrk(Trans, 1, a, 0, c)
	want := matrix.New(3, 3)
	gemmRef(Trans, NoTrans, 1, a, a, 0, want)
	for j := 0; j < 3; j++ {
		for i := 0; i <= j; i++ {
			if math.Abs(c.At(i, j)-want.At(i, j)) > 1e-13 {
				t.Fatalf("Dsyrk upper triangle wrong at (%d,%d)", i, j)
			}
		}
	}
	// Strictly lower triangle untouched.
	if c.At(2, 0) != 0 || c.At(1, 0) != 0 || c.At(2, 1) != 0 {
		t.Fatal("Dsyrk touched lower triangle")
	}
}

func TestDsyrkNoTrans(t *testing.T) {
	a := matrix.Random(3, 6, 13)
	c := matrix.New(3, 3)
	Dsyrk(NoTrans, 2, a, 0, c)
	want := matrix.New(3, 3)
	gemmRef(NoTrans, Trans, 2, a, a, 0, want)
	for j := 0; j < 3; j++ {
		for i := 0; i <= j; i++ {
			if math.Abs(c.At(i, j)-want.At(i, j)) > 1e-12 {
				t.Fatalf("Dsyrk NoTrans wrong at (%d,%d)", i, j)
			}
		}
	}
}

// Property: (A*B)^T == B^T * A^T via Dgemm.
func TestDgemmTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := matrix.Random(5, 4, seed)
		b := matrix.Random(4, 6, seed+1)
		ab := matrix.New(5, 6)
		Dgemm(NoTrans, NoTrans, 1, a, b, 0, ab)
		btat := matrix.New(6, 5)
		Dgemm(Trans, Trans, 1, b, a, 0, btat)
		return matrix.Equal(ab.T(), btat, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Dgemm is associative-with-identity: A*I == A.
func TestDgemmIdentity(t *testing.T) {
	f := func(seed int64) bool {
		a := matrix.Random(5, 5, seed)
		c := matrix.New(5, 5)
		Dgemm(NoTrans, NoTrans, 1, a, matrix.Eye(5), 0, c)
		return matrix.Equal(a, c, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDgemmParallelAllBranches(t *testing.T) {
	// Sizes above the parallel threshold, all transpose combinations,
	// odd dimensions so worker chunking hits remainders. GOMAXPROCS is
	// raised so the fan-out path executes even on single-CPU machines
	// (goroutines then interleave on one core, which is fine for a
	// correctness test).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m, n, k := 129, 97, 83
	for _, ta := range []Transpose{NoTrans, Trans} {
		for _, tb := range []Transpose{NoTrans, Trans} {
			var a, b *matrix.Dense
			if ta == NoTrans {
				a = matrix.Random(m, k, 21)
			} else {
				a = matrix.Random(k, m, 21)
			}
			if tb == NoTrans {
				b = matrix.Random(k, n, 22)
			} else {
				b = matrix.Random(n, k, 22)
			}
			got := matrix.New(m, n)
			want := matrix.New(m, n)
			Dgemm(ta, tb, 1, a, b, 0, got)
			gemmSmall(ta, tb, 1, a, b, 0, want, 0, n)
			if !matrix.Equal(got, want, 1e-11) {
				t.Fatalf("parallel Dgemm ta=%v tb=%v differs", ta, tb)
			}
		}
	}
}

func TestDgemmSingleColumnStaysSerial(t *testing.T) {
	// n < 2 must not spawn workers (and must still be correct).
	a := matrix.Random(2048, 2048, 23)
	b := matrix.Random(2048, 1, 24)
	c := matrix.New(2048, 1)
	want := matrix.New(2048, 1)
	Dgemm(NoTrans, NoTrans, 1, a, b, 0, c)
	gemmSmall(NoTrans, NoTrans, 1, a, b, 0, want, 0, 1)
	if !matrix.Equal(c, want, 1e-10) {
		t.Fatal("single-column product wrong")
	}
}

func TestDgemmManyWorkersFewColumns(t *testing.T) {
	// More workers than columns: the worker count must clamp to n.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	m, n, k := 600, 3, 600 // 2·m·n·k > threshold with only 3 columns
	a := matrix.Random(m, k, 31)
	b := matrix.Random(k, n, 32)
	got := matrix.New(m, n)
	want := matrix.New(m, n)
	Dgemm(NoTrans, NoTrans, 2, a, b, 0, got)
	gemmSmall(NoTrans, NoTrans, 2, a, b, 0, want, 0, n)
	if !matrix.Equal(got, want, 1e-10) {
		t.Fatal("clamped-worker product wrong")
	}
}

func TestDgemmShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dgemm(NoTrans, NoTrans, 1, matrix.New(2, 3), matrix.New(4, 2), 0, matrix.New(2, 2))
}

func TestDgemvShapePanics(t *testing.T) {
	for _, trans := range []Transpose{NoTrans, Trans} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for trans=%v", trans)
				}
			}()
			Dgemv(trans, 1, matrix.New(3, 2), []float64{1}, 0, []float64{1})
		}()
	}
}

func TestDgerShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dger(1, []float64{1}, []float64{1}, matrix.New(2, 2))
}

func TestDgerZeroAlphaNoTouch(t *testing.T) {
	a := matrix.Random(2, 2, 33)
	orig := a.Clone()
	Dger(0, []float64{math.NaN(), 1}, []float64{1, 1}, a)
	if !matrix.Equal(a, orig, 0) {
		t.Fatal("alpha=0 must not touch A")
	}
}
