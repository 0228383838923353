package lapack

import (
	"math"
	"testing"
	"testing/quick"

	"gridqr/internal/blas"
	"gridqr/internal/matrix"
	"gridqr/internal/testmat"
)

const tol = 1e-13

// qrCheck factors a copy of a with the given routine and verifies the
// factorization: R upper triangular, Q orthonormal, A = Q·R.
func qrCheck(t *testing.T, a *matrix.Dense, factor func(*matrix.Dense, []float64)) {
	t.Helper()
	m, n := a.Rows, a.Cols
	k := min(m, n)
	f := a.Clone()
	tau := make([]float64, k)
	factor(f, tau)
	r := TriuCopy(f)
	if !matrix.IsUpperTriangular(r, 0) {
		t.Fatal("R not upper triangular")
	}
	q := Dorgqr(f, tau, k)
	if e := matrix.OrthoError(q); e > tol*float64(m) {
		t.Fatalf("orthogonality error %g", e)
	}
	if res := matrix.ResidualQR(a, q, r); res > tol*float64(m) {
		t.Fatalf("residual %g", res)
	}
}

func TestDlarfgBasic(t *testing.T) {
	x := []float64{3, 4}
	beta, tau := Dlarfg(0, x)
	if math.Abs(math.Abs(beta)-5) > 1e-14 {
		t.Fatalf("|beta| = %g want 5", math.Abs(beta))
	}
	if tau == 0 {
		t.Fatal("tau must be nonzero for nonzero x")
	}
	// Verify H·[alpha; x] = [beta; 0]: v = [1; x_out].
	v := append([]float64{1}, x...)
	orig := []float64{0, 3, 4}
	d := blas.Ddot(v, orig)
	for i := range orig {
		orig[i] -= tau * d * v[i]
	}
	if math.Abs(orig[0]-beta) > 1e-14 || math.Abs(orig[1]) > 1e-14 || math.Abs(orig[2]) > 1e-14 {
		t.Fatalf("H·x = %v want [%g 0 0]", orig, beta)
	}
}

func TestDlarfgZeroTail(t *testing.T) {
	beta, tau := Dlarfg(7, nil)
	if beta != 7 || tau != 0 {
		t.Fatalf("Dlarfg(7, 0-tail) = %g, %g", beta, tau)
	}
	x := []float64{0, 0}
	beta, tau = Dlarfg(-3, x)
	if beta != -3 || tau != 0 {
		t.Fatalf("Dlarfg with zero tail = %g, %g", beta, tau)
	}
}

func TestDlarfgTiny(t *testing.T) {
	x := []float64{1e-300}
	beta, tau := Dlarfg(1e-300, x)
	if beta == 0 || math.IsNaN(beta) || math.IsNaN(tau) {
		t.Fatalf("Dlarfg underflow: beta=%g tau=%g", beta, tau)
	}
}

func TestDgeqr2Small(t *testing.T) {
	qrCheck(t, matrix.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}), Dgeqr2)
}

func TestDgeqr2Square(t *testing.T) {
	qrCheck(t, matrix.Random(8, 8, 1), Dgeqr2)
}

func TestDgeqr2Tall(t *testing.T) {
	qrCheck(t, matrix.Random(200, 12, 2), Dgeqr2)
}

func TestDgeqr2SingleColumn(t *testing.T) {
	qrCheck(t, matrix.Random(50, 1, 3), Dgeqr2)
}

func TestDgeqr2SingleRow(t *testing.T) {
	a := matrix.Random(1, 5, 4)
	f := a.Clone()
	tau := make([]float64, 1)
	Dgeqr2(f, tau)
	// 1×n: R is just the row, Q = ±1.
	if math.Abs(math.Abs(f.At(0, 0))-math.Abs(a.At(0, 0))) > tol {
		t.Fatal("1-row QR wrong")
	}
}

func TestDgeqr2RankDeficient(t *testing.T) {
	// Two identical columns: still must produce a valid factorization.
	qrCheck(t, testmat.RankDeficient(20, 2, 5), Dgeqr2)
}

func TestDgeqr2ZeroMatrix(t *testing.T) {
	a := matrix.New(10, 3)
	f := a.Clone()
	tau := make([]float64, 3)
	Dgeqr2(f, tau)
	for _, tv := range tau {
		if tv != 0 {
			t.Fatal("tau must be zero for zero matrix")
		}
	}
}

func TestDgeqrfMatchesDgeqr2(t *testing.T) {
	a := matrix.Random(150, 40, 6)
	f1 := a.Clone()
	f2 := a.Clone()
	tau1 := make([]float64, 40)
	tau2 := make([]float64, 40)
	Dgeqr2(f1, tau1)
	Dgeqrf(f2, tau2, 8)
	r1 := TriuCopy(f1)
	r2 := TriuCopy(f2)
	NormalizeRSigns(r1, nil)
	NormalizeRSigns(r2, nil)
	if !matrix.Equal(r1, r2, 1e-11) {
		t.Fatal("blocked and unblocked R differ")
	}
}

func TestDgeqrfVariousBlocks(t *testing.T) {
	for _, nb := range []int{1, 3, 7, 16, 64, 100} {
		a := matrix.Random(90, 33, int64(nb))
		qrCheck(t, a, func(f *matrix.Dense, tau []float64) { Dgeqrf(f, tau, nb) })
	}
}

func TestDgeqrfWide(t *testing.T) {
	a := matrix.Random(10, 30, 7)
	f := a.Clone()
	tau := make([]float64, 10)
	Dgeqrf(f, tau, 4)
	q := Dorgqr(f, tau, 10)
	if e := matrix.OrthoError(q); e > tol*10 {
		t.Fatalf("wide QR orthogonality %g", e)
	}
	r := TriuCopy(f)
	if res := matrix.ResidualQR(a, q, r); res > tol*30 {
		t.Fatalf("wide QR residual %g", res)
	}
}

func TestDlarftDlarfbConsistentWithDorm2r(t *testing.T) {
	// Applying a block reflector via Dlarfb must equal applying its
	// reflectors one by one via Dlarf (through Dorm2r).
	m, k, n := 30, 6, 9
	a := matrix.Random(m, k, 8)
	tau := make([]float64, k)
	Dgeqr2(a, tau)
	c := matrix.Random(m, n, 9)
	c1 := c.Clone()
	c2 := c.Clone()
	tm := matrix.New(k, k)
	Dlarft(a, tau, tm)
	for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		matrix.Copy(c1, c)
		matrix.Copy(c2, c)
		Dlarfb(trans, a, tm, c1)
		Dorm2r(trans, a, tau, c2)
		if !matrix.Equal(c1, c2, 1e-11) {
			t.Fatalf("Dlarfb != Dorm2r for trans=%v", trans)
		}
	}
}

// TestLarfbSeedOnly: the structured block reflector on C = [Z; 0] equals
// the reflectors applied one by one to the zero-padded Z, and never
// reads the rows below Z — they hold NaN on entry. Shapes cover a square
// block (nothing below), both Dgemm kernels, a single column and
// reflectors with tau = 0 (a zero column in the input).
func TestLarfbSeedOnly(t *testing.T) {
	for _, tc := range []struct{ m, k, cols int }{
		{6, 6, 4}, {30, 6, 9}, {200, 16, 1}, {700, 24, 24}, {4096, 64, 5},
	} {
		a := matrix.Random(tc.m, tc.k, int64(tc.m))
		clear(a.Col(tc.k / 2))
		tau := make([]float64, tc.k)
		Dgeqrf(a, tau, 0)
		if tau[tc.k/2] != 0 && tc.m > tc.k {
			t.Fatalf("%d×%d: the zero column did not give a tau = 0 reflector", tc.m, tc.k)
		}
		tm := matrix.New(tc.k, tc.k)
		Dlarft(a, tau, tm)
		z := matrix.Random(tc.k, tc.cols, 3)
		want := matrix.New(tc.m, tc.cols)
		matrix.Copy(want.View(0, 0, tc.k, tc.cols), z)
		Dorm2r(blas.NoTrans, a, tau, want)
		got := matrix.New(tc.m, tc.cols)
		for j := 0; j < tc.cols; j++ {
			col := got.Col(j)
			copy(col, z.Col(j))
			for i := tc.k; i < tc.m; i++ {
				col[i] = math.NaN()
			}
		}
		larfb(blas.NoTrans, a, tm, got, true)
		if !matrix.Equal(got, want, 1e-13*matrix.NormFrob(want)) {
			t.Fatalf("%d×%d on %d columns: seed-only block reflector differs from Dorm2r", tc.m, tc.k, tc.cols)
		}
	}
}

// TestDgeqrfLeafAllocs: a 128×64 tree leaf makes 16 inner panels, each
// with its views of the panel, of T and of the trailing columns. None of
// those headers may reach the heap (the parent allocated 305 objects per
// call); the pooled scratch is all a warm call may touch.
func TestDgeqrfLeafAllocs(t *testing.T) {
	a := matrix.Random(128, 64, 3)
	f := matrix.New(128, 64)
	tau := make([]float64, 64)
	if n := testing.AllocsPerRun(50, func() {
		matrix.Copy(f, a)
		Dgeqrf(f, tau, 0)
	}); n > 2 {
		t.Fatalf("Dgeqrf on 128×64 allocates %.0f objects per call, want O(1)", n)
	}
}

// TestLarfbNarrowBitwise holds larfb's four-reflector path to the bits of
// the form every other width takes (larfbDtrmm — the parent's Dlarfb,
// three Dtrmm's around the two products): R, and every Q built from it,
// must not depend on which of the two ran. Widths on both sides of four,
// heights down to a bare triangle, both transposes, the seed-only form,
// a reflector with tau = 0 (at 128 rows) and a view with a stride.
func TestLarfbNarrowBitwise(t *testing.T) {
	for k := 1; k <= 8; k++ {
		for _, rows := range []int{k, k + 1, 128, 4096} {
			parent := matrix.Random(rows+3, k, int64(rows+k))
			a := parent.View(2, 0, rows, k)
			if k > 2 && rows == 128 {
				clear(a.Col(1)) // tau[1] = 0: row and column 1 of T are zero
			}
			tau := make([]float64, k)
			Dgeqr2(a, tau)
			tm := matrix.New(k, k)
			Dlarft(a, tau, tm)
			for _, cols := range []int{1, 3, 60, 1024} {
				for _, trans := range []blas.Transpose{blas.Trans, blas.NoTrans} {
					for _, seedOnly := range []bool{false, true} {
						got := matrix.Random(rows, cols, 7)
						want := got.Clone()
						larfb(trans, a, tm, got, seedOnly)
						w := matrix.New(k, cols)
						larfbDtrmm(trans, a, tm, want, w, seedOnly)
						if !bitsEqual(got, want) {
							t.Errorf("k=%d rows=%d cols=%d trans=%v seedOnly=%v: larfb differs from larfbDtrmm",
								k, rows, cols, trans, seedOnly)
						}
					}
				}
			}
		}
	}
}

// TestDormqrFollowsTheRule pins blockReflectorPays where other layers
// lean on it and shows Dormqr(nb = 0) obeying it, bit for bit: a 128×64
// tree leaf and a 256×16 fold block are Dorm2r, a 4096×64 fold block on
// 64 columns is one block reflector, the same block on three right-hand
// sides is Dorm2r again; under a wide C (CAQR's panels against N
// columns) 64-, 128- and 256-row blocks stay on Dorm2r and 512 rows go
// to the block reflector.
func TestDormqrFollowsTheRule(t *testing.T) {
	for _, tc := range []struct {
		rows, k, cols int
		wy            bool
	}{
		{128, 64, 64, false}, {256, 16, 16, false}, {512, 64, 64, false}, {2047, 64, 64, false},
		{2048, 64, 64, true}, {4096, 64, 64, true}, {4096, 64, 128, true}, {8192, 16, 16, true},
		{4096, 64, 3, false}, {4096, 64, 63, false}, {1 << 17, 64, 1, false},
		{64, 64, 2048, false}, {128, 64, 1024, false}, {128, 32, 4096, false}, {256, 16, 1024, false},
		{511, 64, 4096, false}, {512, 64, 255, false}, {512, 64, 256, true}, {1024, 16, 256, true},
	} {
		if got := blockReflectorPays(tc.rows, tc.k, tc.cols); got != tc.wy {
			t.Errorf("blockReflectorPays(%d, %d, %d) = %v, want %v", tc.rows, tc.k, tc.cols, got, tc.wy)
		}
	}
	// Fold blocks: cache-sized from 64 columns up, n² rows — well inside
	// the cache — at 16 and 32.
	for n := foldMinCols; n <= foldMaxCols; n++ {
		if b := FoldBlockRows(n); n <= 32 && blockReflectorPays(b, n, n) || n >= 64 && !blockReflectorPays(b, n, n) {
			t.Errorf("n = %d: %d-row fold blocks on the wrong side of the rule", n, b)
		}
	}
	for _, tc := range []struct{ rows, k, cols int }{{128, 64, 64}, {256, 16, 16}, {4096, 64, 64}, {4096, 64, 3}, {128, 64, 1024}, {512, 64, 256}} {
		a := matrix.Random(tc.rows, tc.k, 21)
		tau := make([]float64, tc.k)
		Dgeqrf(a, tau, 0)
		for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			c := matrix.Random(tc.rows, tc.cols, 22)
			want := c.Clone()
			Dormqr(trans, a, tau, c, 0)
			if blockReflectorPays(tc.rows, tc.k, tc.cols) {
				tm := matrix.New(tc.k, tc.k)
				Dlarft(a, tau, tm)
				Dlarfb(trans, a, tm, want)
			} else {
				Dorm2r(trans, a, tau, want)
			}
			if !bitsEqual(c, want) {
				t.Errorf("Dormqr on %d×%d, %d columns, trans=%v: not the kernel the rule names", tc.rows, tc.k, tc.cols, trans)
			}
		}
	}
}

func TestDormqrBlockedMatchesUnblocked(t *testing.T) {
	m, k, n := 60, 20, 7
	a := matrix.Random(m, k, 10)
	tau := make([]float64, k)
	Dgeqrf(a, tau, 5)
	for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		c1 := matrix.Random(m, n, 11)
		c2 := c1.Clone()
		Dormqr(trans, a, tau, c1, 6)
		Dorm2r(trans, a, tau, c2)
		if !matrix.Equal(c1, c2, 1e-11) {
			t.Fatalf("Dormqr != Dorm2r for trans=%v", trans)
		}
	}
}

func TestDormqrQTransposeQIsIdentity(t *testing.T) {
	m, k := 40, 10
	a := matrix.Random(m, k, 12)
	tau := make([]float64, k)
	Dgeqrf(a, tau, 4)
	c := matrix.Random(m, 5, 13)
	orig := c.Clone()
	Dormqr(blas.Trans, a, tau, c, 0)
	Dormqr(blas.NoTrans, a, tau, c, 0)
	if !matrix.Equal(c, orig, 1e-12) {
		t.Fatal("Q·Qᵀ·C != C")
	}
}

func TestDorgqrThin(t *testing.T) {
	a := matrix.Random(25, 6, 14)
	f := a.Clone()
	tau := make([]float64, 6)
	Dgeqrf(f, tau, 3)
	q := Dorgqr(f, tau, 6)
	if q.Rows != 25 || q.Cols != 6 {
		t.Fatalf("thin Q shape %d×%d", q.Rows, q.Cols)
	}
	if e := matrix.OrthoError(q); e > tol*25 {
		t.Fatalf("thin Q orthogonality %g", e)
	}
}

// TestDorgqrThroughBlockReflectors: tall enough for the rule, Dorgqr
// expands the identity through block reflectors — seed-only on the block
// applied first, two blocks wide at 130 columns — and must still equal
// the reflectors applied one by one.
func TestDorgqrThroughBlockReflectors(t *testing.T) {
	for _, s := range [][2]int{{4096, 64}, {3000, 130}} {
		m, n := s[0], s[1]
		f := matrix.Random(m, n, 15)
		tau := make([]float64, n)
		Dgeqrf(f, tau, 0)
		want := matrix.New(m, n)
		matrix.Copy(want.View(0, 0, n, n), matrix.Eye(n))
		Dorm2r(blas.NoTrans, f, tau, want)
		if got := Dorgqr(f, tau, n); !matrix.Equal(got, want, 1e-13) {
			t.Fatalf("%d×%d: Dorgqr differs from Dorm2r on the identity", m, n)
		}
	}
}

func TestTriuCopy(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	r := TriuCopy(a)
	want := matrix.FromRows([][]float64{{1, 2}, {0, 4}})
	if !matrix.Equal(r, want, 0) {
		t.Fatalf("TriuCopy = %v want %v", r, want)
	}
}

func TestDlacpy(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	b := matrix.New(2, 2)
	Dlacpy(CopyUpper, a, b)
	if b.At(0, 1) != 2 || b.At(1, 0) != 0 {
		t.Fatalf("CopyUpper wrong: %v", b)
	}
	b.Zero()
	Dlacpy(CopyLower, a, b)
	if b.At(1, 0) != 3 || b.At(0, 1) != 0 {
		t.Fatalf("CopyLower wrong: %v", b)
	}
	Dlacpy(CopyAll, a, b)
	if !matrix.Equal(a, b, 0) {
		t.Fatal("CopyAll wrong")
	}
}

func TestDlaset(t *testing.T) {
	a := matrix.Random(3, 3, 15)
	Dlaset(a, 2, 5)
	if a.At(0, 0) != 5 || a.At(1, 0) != 2 || a.At(0, 2) != 2 {
		t.Fatalf("Dlaset wrong: %v", a)
	}
}

func TestNormalizeRSigns(t *testing.T) {
	r := matrix.FromRows([][]float64{{-2, 1}, {0, 3}})
	q := matrix.Random(5, 2, 16)
	q0 := q.Clone()
	NormalizeRSigns(r, q)
	if r.At(0, 0) != 2 || r.At(0, 1) != -1 || r.At(1, 1) != 3 {
		t.Fatalf("NormalizeRSigns R wrong: %v", r)
	}
	for i := 0; i < 5; i++ {
		if q.At(i, 0) != -q0.At(i, 0) || q.At(i, 1) != q0.At(i, 1) {
			t.Fatal("NormalizeRSigns Q columns wrong")
		}
	}
	// Q·R product must be unchanged — verified by factor check:
	// (−q0)·(−r0) = q0·r0 on row 0.
}

func TestQRIllConditioned(t *testing.T) {
	// Householder QR must stay backward stable at condition 1e12.
	a := testmat.Conditioned(100, 10, 1e12, 17)
	qrCheck(t, a, func(f *matrix.Dense, tau []float64) { Dgeqrf(f, tau, 4) })
}

// TestQRPropertySuite sweeps every shared input class over both the
// unblocked and blocked factorizations: orthogonality and reconstruction
// must hold for graded, extreme-scale and rank-deficient inputs alike.
func TestQRPropertySuite(t *testing.T) {
	for _, tc := range testmat.Suite() {
		t.Run(tc.Name, func(t *testing.T) {
			a := tc.Gen(60, 8, 21)
			qrCheck(t, a, Dgeqr2)
			qrCheck(t, a, func(f *matrix.Dense, tau []float64) { Dgeqrf(f, tau, 4) })
		})
	}
}

// Property: for random TS matrices, |det-ish| invariants — the diagonal of
// R has |r_jj| equal to the norm of the j-th column of A projected out of
// the previous ones; cheap proxy: ‖A‖_F == ‖R‖_F (orthogonal invariance).
func TestQRFrobInvariance(t *testing.T) {
	f := func(seed int64) bool {
		a := matrix.Random(40, 7, seed)
		fm := a.Clone()
		tau := make([]float64, 7)
		Dgeqrf(fm, tau, 3)
		r := TriuCopy(fm)
		return math.Abs(matrix.NormFrob(a)-matrix.NormFrob(r)) < 1e-11
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
