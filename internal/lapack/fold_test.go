package lapack

import (
	"testing"

	"gridqr/internal/blas"
	"gridqr/internal/matrix"
	"gridqr/internal/testmat"
)

// TestFoldBlockRows pins the block rule where other code depends on it:
// the benchmark takes DefaultPanelRows-row views of 4096-row blocks at
// n = 64 and of 256-row blocks at n = 16.
func TestFoldBlockRows(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{1, 1}, {8, 64}, {16, 256}, {64, 4096}, {1024, 2048}} {
		if got := FoldBlockRows(tc.n); got != tc.want {
			t.Errorf("FoldBlockRows(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	for n := 1; n <= 2048; n++ {
		if b := FoldBlockRows(n); b < n {
			t.Fatalf("FoldBlockRows(%d) = %d is shorter than the panel is wide", n, b)
		}
	}
}

// foldCheck folds a copy of a through b-row blocks and verifies R
// against the one-shot Dgeqrf and the recorded Q by reconstruction,
// orthogonality and a Qᵀ-then-Q round trip on a dense block.
func foldCheck(t *testing.T, a *matrix.Dense, b int, uniqueR bool) {
	t.Helper()
	m, n := a.Rows, a.Cols
	f := a.Clone()
	r, q := foldQR(f, b, 0, true)
	if !matrix.IsUpperTriangular(r, 0) {
		t.Fatal("R not upper triangular")
	}
	if want := (m + b - 1) / b; len(q.blocks) != want {
		t.Fatalf("%d rows folded in %d blocks, want %d", m, len(q.blocks), want)
	}

	scale := matrix.NormFrob(a)
	if uniqueR {
		ref := a.Clone()
		Dgeqrf(ref, make([]float64, n), 0)
		want := TriuCopy(ref).View(0, 0, n, n).Clone()
		got := r.Clone()
		NormalizeRSigns(want, nil)
		NormalizeRSigns(got, nil)
		if !matrix.Equal(got, want, 1e-10*scale) {
			t.Fatal("folded R differs from one-shot Dgeqrf")
		}
	}

	thin := matrix.New(m, n)
	matrix.Copy(thin.View(0, 0, n, n), matrix.Eye(n))
	q.Apply(blas.NoTrans, thin)
	if e := matrix.OrthoError(thin); e > 1e-12 {
		t.Fatalf("orthogonality error %g", e)
	}
	if e := matrix.ResidualQR(a, thin, r); e > 1e-12 {
		t.Fatalf("residual %g", e)
	}

	c := matrix.Random(m, 3, 99)
	back := c.Clone()
	q.Apply(blas.Trans, back)
	q.Apply(blas.NoTrans, back)
	if !matrix.Equal(back, c, 1e-12) {
		t.Fatal("Q·(Qᵀ·C) differs from C")
	}

	// R-only runs the same kernels on pooled workspaces: same bits.
	rOnly, _ := foldQR(a.Clone(), b, 0, false)
	if !bitsEqual(rOnly, r) {
		t.Fatal("R-only fold differs bitwise from the recorded fold")
	}
}

// TestFoldQREdges sweeps the block boundaries: rows = q·b + r with
// tails shorter than, equal to and longer than n, over every shared
// input class.
func TestFoldQREdges(t *testing.T) {
	const n = 8
	b := FoldBlockRows(n)
	for _, tc := range testmat.Suite() {
		t.Run(tc.Name, func(t *testing.T) {
			for _, q := range []int{2, 3} {
				for _, r := range []int{0, 1, n - 1, n, b - 1} {
					foldCheck(t, tc.Gen(q*b+r, n, int64(q*b+r)), b, !tc.RankDeficient)
				}
			}
		})
	}
	foldCheck(t, matrix.Random(n, n, 8), n, true)          // square single block
	foldCheck(t, matrix.Random(5*300+7, 80, 9), 300, true) // blocks wider than one Dgeqrf panel
}

// TestFoldQRGuard: FoldQR cuts a leaf into blocks only inside the
// measured width range and only when it is larger than two cache-sized
// blocks; everything else is one Dgeqrf, bit for bit.
func TestFoldQRGuard(t *testing.T) {
	for _, tc := range []struct {
		m, n    int
		blocked bool
	}{
		{8192, 64, false}, {8193, 64, true}, // the serve_closed leaf and one row more
		{32768, 16, false}, {32769, 16, true},
		{5462, 96, true}, {8192, 97, false},
		{49152, 11, false}, {43691, 12, true},
		{1 << 17, 4, false}, {4096, 256, false},
	} {
		a := matrix.Random(tc.m, tc.n, int64(tc.m))
		f := a.Clone()
		r, q := FoldQR(f, 0, true)
		want := 1
		if tc.blocked {
			want = (tc.m + FoldBlockRows(tc.n) - 1) / FoldBlockRows(tc.n)
		}
		if len(q.blocks) != want {
			t.Fatalf("%d×%d folded in %d blocks, want %d", tc.m, tc.n, len(q.blocks), want)
		}
		if !tc.blocked {
			Dgeqrf(a, make([]float64, tc.n), 0)
			if !bitsEqual(r, TriuCopy(a).View(0, 0, tc.n, tc.n).Clone()) || !bitsEqual(f, a) {
				t.Fatalf("%d×%d: unblocked FoldQR differs bitwise from Dgeqrf", tc.m, tc.n)
			}
		}
	}
}

// TestFoldBlockShortFirstBlock: a fold may start with fewer than n rows
// (a stream's first partial panel); the triangle is zero-padded.
func TestFoldBlockShortFirstBlock(t *testing.T) {
	const n = 6
	a := matrix.Random(20, n, 3)
	f := a.Clone()
	var r *matrix.Dense
	for _, cut := range [][2]int{{0, 2}, {2, 3}, {5, 15}} {
		r = FoldBlock(r, f.View(cut[0], 0, cut[1], n), 0, nil)
	}
	ref := a.Clone()
	Dgeqrf(ref, make([]float64, n), 0)
	want := TriuCopy(ref).View(0, 0, n, n).Clone()
	NormalizeRSigns(want, nil)
	NormalizeRSigns(r, nil)
	if !matrix.Equal(r, want, 1e-12) {
		t.Fatal("fold starting with 2 rows differs from one-shot Dgeqrf")
	}
}

// expandCheck folds a copy of a through b-row blocks and compares
// Expand(seed) with Apply(NoTrans) on the zero-padded seed, for random
// seeds of each width, to 1e-13 of the result's norm.
func expandCheck(t *testing.T, a *matrix.Dense, b int, widths ...int) {
	t.Helper()
	m, n := a.Rows, a.Cols
	_, q := foldQR(a.Clone(), b, 0, true)
	for _, k := range widths {
		seed := matrix.Random(n, k, int64(m+k))
		want := matrix.New(m, k)
		matrix.Copy(want.View(0, 0, n, k), seed)
		q.Apply(blas.NoTrans, want)
		got := q.Expand(seed)
		if got.Rows != m || got.Cols != k {
			t.Fatalf("Expand of a %d×%d seed over %d rows is %d×%d", n, k, m, got.Rows, got.Cols)
		}
		if !matrix.Equal(got, want, 1e-13*matrix.NormFrob(want)) {
			t.Fatalf("%d×%d in %d-row blocks, seed width %d: Expand differs from Apply on the padded seed", m, n, b, k)
		}
	}
}

// TestFoldQExpand: the structured expansion against the dense apply, on
// both sides of blockReflectorPays at n = 16 and n = 64 (8192- and
// 2048-row blocks take the block reflector once the seed is n wide,
// 256- and 512-row blocks and every width-1 seed take Dorm2r), over the
// shared input classes on q·b+r row counts including a tail shorter
// than n, a single-block leaf, and a zero column (tau = 0 reflectors).
func TestFoldQExpand(t *testing.T) {
	for _, tc := range testmat.Suite() {
		t.Run(tc.Name, func(t *testing.T) {
			const n, b = 16, 8192
			for _, r := range []int{0, 1, n - 1, n, 300} {
				expandCheck(t, tc.Gen(2*b+r, n, int64(r)), b, 1, n, 2*n)
			}
			expandCheck(t, tc.Gen(3*256+5, n, 5), 256, 1, n, 2*n)
		})
	}
	expandCheck(t, matrix.Random(2*2048+40, 64, 1), 2048, 1, 64, 128)
	expandCheck(t, matrix.Random(3*512+7, 64, 2), 512, 1, 64, 128)
	expandCheck(t, matrix.Random(8192, 16, 3), 8192, 16) // single-block leaf
	expandCheck(t, matrix.Random(300, 16, 4), 300, 16)
	zc := matrix.Random(2*2048+3, 64, 5)
	clear(zc.Col(7))
	expandCheck(t, zc, 2048, 64)
}

// TestFoldQExpandLeaf is the factor_q leaf: the thin Q of 131072×64
// expanded from the identity is orthonormal and reconstructs A to 1e-12,
// and its bits depend neither on the BLAS worker count nor on the run.
func TestFoldQExpandLeaf(t *testing.T) {
	const m, n = 131072, 64
	a := matrix.Random(m, n, 6)
	r, q := FoldQR(a.Clone(), 0, true)
	defer blas.SetWorkers(0)
	blas.SetWorkers(1)
	thin := q.Expand(matrix.Eye(n))
	if e := matrix.OrthoError(thin); e > 1e-12 {
		t.Fatalf("orthogonality error %g", e)
	}
	if e := matrix.ResidualQR(a, thin, r); e > 1e-12 {
		t.Fatalf("residual %g", e)
	}
	for _, workers := range []int{1, 2} {
		blas.SetWorkers(workers)
		if !bitsEqual(q.Expand(matrix.Eye(n)), thin) {
			t.Fatalf("Expand with %d BLAS workers differs bitwise from the first run", workers)
		}
	}
}
