package lapack

import (
	"gridqr/internal/blas"
	"gridqr/internal/matrix"
)

// This file is the sequential TSQR recurrence (Demmel et al.,
// arXiv:0806.2159): factor one cache-sized row block, merge its triangle
// into a running R with the stacked-triangle kernel, carry only R. The
// streaming fold (stream.Folder) and the per-rank leaf of TSQR
// (core.factorLeaf, FactorizeFT) are both this loop; they differ only in
// where the rows come from and whether the reflectors are kept.

// foldBlockBytes is the block footprint FoldBlockRows aims for: the
// largest block that still sits in a per-core L2/LLC slice on the
// reference hosts. 1024-row blocks pay the merge too often and
// 16384-row blocks start missing cache (ROADMAP item 3's probe).
const foldBlockBytes = 2 << 20

// FoldBlockRows is the one block-height rule b(n): about foldBlockBytes
// of rows, at least 2n so the block QR dominates the 2n³/3 merge, and at
// most n² so narrow panels are not folded through blocks thousands of
// times taller than they are wide. It depends on n only — never on the
// host, the rank count or how rows arrive — because the block boundaries
// fix the kernel sequence and therefore R, bit for bit.
func FoldBlockRows(n int) int {
	return min(n*n, max(2*n, foldBlockBytes/(8*n)))
}

// FoldQ is the implicit orthogonal factor a recorded fold leaves behind:
// per block the Householder reflectors (still in place, in the caller's
// rows) and their taus, per merge the V and tau of the stacked-triangle
// QR. Together they are the flat-tree TSQR Q of the folded rows.
type FoldQ struct {
	rows   int             // rows folded so far
	blocks []*matrix.Dense // factored row blocks, in row order
	offs   []int           // first folded row of each block
	taus   [][]float64
	v      []*matrix.Dense // v[i], vtau[i]: the merge of block i+1
	vtau   [][]float64
}

// FoldBlock is one step of the recurrence: it factors block (k×n, any
// k ≥ 1) in place — Dgeqrf with panel width nb — and merges the resulting triangle into the running n×n upper
// triangular r, which is updated in place and returned. r == nil starts
// a fold: the block's triangle (zero-padded when k < n) becomes a fresh
// running R. When q is non-nil the step is recorded in it; the first
// recorded block must have at least n rows.
func FoldBlock(r, block *matrix.Dense, nb int, q *FoldQ) *matrix.Dense {
	k, n := block.Rows, block.Cols
	kk := min(k, n)
	// One slab holds the block's tau and, when there is something to
	// merge into, the merge's tau and V. R-only steps borrow it from the
	// pool; recorded steps own it, since q keeps all three.
	size := kk
	if r != nil {
		size += n + n*n
	}
	var w []float64
	if q == nil {
		wp := getWork(size)
		defer putWork(wp)
		w = *wp
	} else {
		w = make([]float64, size)
	}
	tau := w[:kk]
	Dgeqrf(block, tau, nb)
	if q != nil {
		if len(q.blocks) == 0 && k < n {
			panic("lapack: a recorded fold must start with at least n rows")
		}
		q.blocks = append(q.blocks, block)
		q.offs = append(q.offs, q.rows)
		q.taus = append(q.taus, tau)
		q.rows += k
	}
	if r == nil {
		r = matrix.New(n, n)
		copyTriu(r, block)
		return r
	}
	vtau, v := w[kk:kk+n], matrix.FromColMajor(n, n, w[kk+n:])
	copyTriu(v, block)
	StackQRInPlace(r, v, vtau)
	if q != nil {
		q.v = append(q.v, v)
		q.vtau = append(q.vtau, vtau)
	}
	return r
}

// copyTriu overwrites the n×n dst with the upper triangle (trapezoid,
// when a has fewer than n rows) of the factored a, zero elsewhere.
func copyTriu(dst, a *matrix.Dense) {
	for j := 0; j < dst.Cols; j++ {
		col := dst.Col(j)
		top := copy(col[:min(j+1, a.Rows)], a.Col(j))
		clear(col[top:])
	}
}

// foldMinCols and foldMaxCols bound the widths FoldQR cuts into blocks
// (DESIGN.md "Panel kernels" has the table, BenchmarkFoldWidthGuard the
// measurement). Fold time over one Dgeqrf on a 32 MiB leaf, with the
// skinny GEMM kernels under both: 5.7–6.3 at n = 4 and 2.1 at 8, where
// the n²-row blocks are too short to amortise a call; 1.0–1.2 at 12–16
// (1.0–1.1 on 128 MiB, 1.2–1.9 on 8 MiB); 0.9–1.0 at 20–28; 0.77–0.94 at
// 32–64 (0.55–0.67 on 128 MiB); 0.93–1.08 at 96 (0.6–0.8 on 128 MiB);
// then 0.94–1.2 at 112–128 and 1.2–1.5 at 192–256, where blocks are
// barely 20 times taller than wide and the n×n merges eat the gain. The
// one Dgeqrf gained more from those kernels than the blocks did — its
// trailing updates stream the panel at the kernels' rate now — so the
// range that gains has shrunk to about 24–96 columns and 12–16 is a
// wash to a small loss. The lower bound stays where it was: inside the
// guard a one-rank leaf and a stream.Folder cut the same blocks and
// return the same bits (TestLeafEqualsFolder holds that at n = 16), and
// that is worth more than the 0–20% at those widths.
const (
	foldMinCols = 12
	foldMaxCols = 96
)

// FoldQR factors the tall a in place and returns its n×n R factor and,
// when wantQ, the implicit Q. A leaf of foldMinCols to foldMaxCols columns
// that is larger than two cache-sized blocks (more than 8192 rows at
// n = 64) is folded through FoldBlockRows(n)-row blocks by the recurrence
// above; anything else is one block, i.e. a plain Dgeqrf, because a leaf
// that already sits in cache has no misses for the merges to buy back.
// The choice is a property of the shape alone.
func FoldQR(a *matrix.Dense, nb int, wantQ bool) (*matrix.Dense, *FoldQ) {
	m, n := a.Rows, a.Cols
	b := m
	if n >= foldMinCols && n <= foldMaxCols && 8*m*n > 2*foldBlockBytes {
		b = FoldBlockRows(n)
	}
	return foldQR(a, b, nb, wantQ)
}

// foldQR is the recurrence over b-row blocks of a; the last block takes
// the remainder.
func foldQR(a *matrix.Dense, b, nb int, wantQ bool) (*matrix.Dense, *FoldQ) {
	m, n := a.Rows, a.Cols
	var q *FoldQ
	if wantQ {
		q = &FoldQ{}
	}
	var r *matrix.Dense
	for i := 0; i < m; i += b {
		r = FoldBlock(r, a.View(i, 0, min(b, m-i), n), nb, q)
	}
	return r, q
}

// Apply computes C = op(Q)·C in place, where C's rows line up with the
// folded rows — a drop-in for Dormqr over the whole panel that touches
// one cache-sized block at a time. Q is the block-diagonal of the block
// Qs times the merges in fold order; Qᵀ applies the factors in that
// order and Q in reverse.
func (q *FoldQ) Apply(trans blas.Transpose, c *matrix.Dense) {
	if c.Rows != q.rows {
		panic("lapack: FoldQ.Apply shape mismatch")
	}
	q.apply(trans, c, false)
}

// Expand returns Q·[seed; 0] for an n×k seed: the rows of the explicit Q
// (seed = the identity, or a tree node's share of it) or of any product
// in the folded rows' column space. It equals Apply(NoTrans) on the
// zero-padded seed, but every block the height rule hands to a block
// reflector is written once from its n×k top — the zeros below are never
// read.
func (q *FoldQ) Expand(seed *matrix.Dense) *matrix.Dense {
	n := q.blocks[0].Cols
	if seed.Rows != n {
		panic("lapack: FoldQ.Expand needs an n-row seed")
	}
	out := matrix.New(q.rows, seed.Cols)
	matrix.Copy(out.View(0, 0, n, seed.Cols), seed)
	q.apply(blas.NoTrans, out, true)
	return out
}

// apply is Apply; seedOnly (NoTrans only) says c is zero outside its top
// n rows, which the merges then spread to the top n rows under every
// block and nowhere else.
func (q *FoldQ) apply(trans blas.Transpose, c *matrix.Dense, seedOnly bool) {
	n := q.blocks[0].Cols
	// rowsOf is the top rows of C's slice under block i.
	rowsOf := func(i, rows int) *matrix.Dense { return c.View(q.offs[i], 0, rows, c.Cols) }
	applyBlocks := func() {
		for i, blk := range q.blocks {
			ormqr(trans, blk, q.taus[i], rowsOf(i, blk.Rows), 0, seedOnly)
		}
	}
	// Merge i acts on the top n rows under block 0 and under block i+1.
	merge := func(i int) {
		rows := min(n, q.blocks[i+1].Rows)
		top, bottom := rowsOf(0, n), rowsOf(i+1, rows)
		if rows == n {
			ApplyStackQ(q.v[i], q.vtau[i], trans == blas.Trans, top, bottom)
			return
		}
		// A short tail block was merged as a zero-padded triangle; V is
		// zero in the padding rows, so they neither change nor matter.
		pad, padP := getMat(n, c.Cols)
		defer putWork(padP)
		pad.Zero()
		matrix.Copy(pad.View(0, 0, rows, c.Cols), bottom)
		ApplyStackQ(q.v[i], q.vtau[i], trans == blas.Trans, top, &pad)
		matrix.Copy(bottom, pad.View(0, 0, rows, c.Cols))
	}
	if trans == blas.Trans {
		applyBlocks()
		for i := range q.v {
			merge(i)
		}
		return
	}
	for i := len(q.v) - 1; i >= 0; i-- {
		merge(i)
	}
	applyBlocks()
}
