package lapack

import (
	"gridqr/internal/blas"
	"gridqr/internal/flops"
	"gridqr/internal/matrix"
	"gridqr/internal/telemetry"
)

// DefaultBlock is the panel width used by Dgeqrf when the caller passes
// nb <= 0. It matches the NB=64 default the paper quotes for ScaLAPACK's
// PDGEQRF.
const DefaultBlock = 64

// Dgeqr2 computes the unblocked Householder QR factorization of a. On
// return the upper triangle of a holds R, the strictly lower part holds
// the reflector tails V, and tau[j] the scaling factor of reflector j.
// tau must have length min(m, n).
func Dgeqr2(a *matrix.Dense, tau []float64) {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if len(tau) < k {
		panic("lapack: Dgeqr2 tau too short")
	}
	for j := 0; j < k; j++ {
		col := a.Col(j)
		beta, t := Dlarfg(col[j], col[j+1:])
		tau[j] = t
		col[j] = beta
		if j < n-1 && t != 0 {
			Dlarf(t, col[j+1:], a.View(j, j+1, m-j, n-j-1))
		}
	}
}

// geqr2NB is the inner panel width of panelQR. The level-2 share of a
// panel factorization — Dgeqr2 sweeping the subpanel once per column — is
// ∝ m·n·(inner width); everything outside the subpanel is the block
// reflector's two skinny GEMMs, which run near the FMA peak at any
// width, so the width is as small as their fixed costs allow. Measured
// (BenchmarkPanelInnerWidth; DESIGN.md "Panel kernels" has the table): 4
// beats 8 by 5–10% on a 4096×64 fold block and by 20% on 4096×16, 16 by
// 30–60%; on a 128×64 tree leaf, where a block reflector's fixed costs
// weigh most, 4 is 40–50% ahead of 8 since larfb applies a four-wide
// block's triangles itself (quad). A variable (not a const) so that
// benchmark can sweep it; never mutated at runtime.
var geqr2NB = 4

// panelQR factors a tall panel with inner blocking at width geqr2NB:
// Dgeqr2 runs only on geqr2NB-wide subpanels and the remaining columns
// are updated by the blocked reflector. The split depends only on the
// shape, so results are reproducible for a given shape and kernel path.
func panelQR(a *matrix.Dense, tau []float64) {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if k <= geqr2NB {
		Dgeqr2(a, tau)
		return
	}
	t, tP := getMat(geqr2NB, geqr2NB)
	defer putWork(tP)
	for j := 0; j < k; j += geqr2NB {
		jb := min(geqr2NB, k-j)
		panel := a.View(j, j, m-j, jb)
		Dgeqr2(panel, tau[j:j+jb])
		if j+jb < n {
			tb := t.View(0, 0, jb, jb)
			Dlarft(panel, tau[j:j+jb], tb)
			Dlarfb(blas.Trans, panel, tb, a.View(j, j+jb, m-j, n-j-jb))
		}
	}
}

// larftGramMin is the size of V2 — the rows of the reflector block under
// its k×k unit lower triangular head V1 — in elements from which Dlarft
// forms the columns' cross-products over those rows all at once. Under
// 64 KiB the per-column products are short enough that the level-3 call
// is mostly its own overhead (BenchmarkLarftRoutes; DESIGN.md "Panel
// kernels" has the table). A variable so that benchmark can force either
// route; never mutated at runtime.
var larftGramMin = 8192

// Dlarft forms the upper triangular factor T of the block reflector
// H = I − V·T·Vᵀ from the k reflectors stored columnwise in v (forward
// direction). v is m×k with implicit unit diagonal; t is k×k and is
// overwritten.
func Dlarft(v *matrix.Dense, tau []float64, t *matrix.Dense) {
	k := v.Cols
	if t.Rows != k || t.Cols != k || len(tau) < k {
		panic("lapack: Dlarft shape mismatch")
	}
	m := v.Rows
	// t[0:i, i] = -tau[i] * V[:, 0:i]ᵀ · v_i, exploiting that v_i is zero
	// above row i and has a unit entry at row i: the unit-row term
	// V[i, j], plus the dots over the common tail rows i+1:m. The rows of
	// V2 are common to every pair of columns, so on a tall block their
	// share of the dots — rows·k² flops at Dgemv speed, column by column
	// — is instead the upper triangle of V2ᵀ·V2, formed once at level-3
	// speed into T itself, and the per-column dots stop at row k.
	kk := min(k, m)
	gram := (m-kk)*k >= larftGramMin
	tail := m
	if gram {
		blas.Dsyrk(blas.Trans, 1, v.View(kk, 0, m-kk, k), 0, t)
		tail = kk
	}
	for i := 0; i < k; i++ {
		if tau[i] == 0 {
			for j := 0; j <= i; j++ {
				t.Set(j, i, 0)
			}
			continue
		}
		if i > 0 {
			vi := v.Col(i)
			colTop := t.Col(i)[:i]
			for j := 0; j < i; j++ {
				if gram {
					colTop[j] += v.Col(j)[i]
				} else {
					colTop[j] = v.Col(j)[i]
				}
			}
			// alpha = beta = -tau[i] folds the scaling into the same call.
			blas.Dgemv(blas.Trans, -tau[i], v.View(i+1, 0, tail-i-1, i), vi[i+1:tail], -tau[i], colTop)
			// t[0:i, i] = T[0:i, 0:i] · t[0:i, i]
			blas.Dtrmv(blas.NoTrans, t.View(0, 0, i, i), colTop)
		}
		t.Set(i, i, tau[i])
	}
}

// Dlarfb applies the block reflector H = I − V·T·Vᵀ (or its transpose)
// from the left to C: C = op(H)·C. v is m×k stored columnwise with
// implicit unit diagonal, t is the k×k factor from Dlarft.
func Dlarfb(trans blas.Transpose, v, t, c *matrix.Dense) {
	larfb(trans, v, t, c, false)
}

// larfb is Dlarfb, and with seedOnly its structured form for a C that is
// zero below its top k rows on entry: those rows are neither read nor
// assumed cleared — W = op(T)·V1ᵀ·C1 needs the top block alone, and the
// rows below are written once as −V2·W.
func larfb(trans blas.Transpose, v, t, c *matrix.Dense, seedOnly bool) {
	m, k := v.Rows, v.Cols
	if c.Rows != m {
		panic("lapack: Dlarfb shape mismatch")
	}
	n := c.Cols
	if n == 0 || k == 0 {
		return
	}
	// W = Vᵀ·C  (k×n), exploiting the unit lower-trapezoidal structure:
	// V = [V1; V2] with V1 unit lower triangular k×k, V2 rectangular.
	w, wP := getMat(k, n)
	defer putWork(wP)
	if k != 4 {
		larfbDtrmm(trans, v, t, c, &w, seedOnly)
		return
	}
	// panelQR's blocks — four reflectors, geqr2NB — and any other of that
	// width: the triangles are held in registers.
	q := loadQuad(v, t)
	q.headT(c, &w) // W = V1ᵀ·C1
	if m > k && !seedOnly {
		blas.Dgemm(blas.Trans, blas.NoTrans, 1, v.View(k, 0, m-k, k), c.View(k, 0, m-k, n), 1, &w)
	}
	q.finish(trans, &w, c) // W = op(T)·W, C1 −= V1·W
	if m > k {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, -1, v.View(k, 0, m-k, k), &w, seedBeta(seedOnly), c.View(k, 0, m-k, n))
	}
}

// seedBeta is the β of C2 = β·C2 − V2·W: a seed-only C2 is overwritten.
func seedBeta(seedOnly bool) float64 {
	if seedOnly {
		return 0
	}
	return 1
}

// larfbDtrmm is larfb for a block of any width, on the caller's k×n W:
// the triangles go through Dtrmm.
func larfbDtrmm(trans blas.Transpose, v, t, c, w *matrix.Dense, seedOnly bool) {
	m, k, n := v.Rows, v.Cols, c.Cols
	u, uP := lowerAsUpperT(v.View(0, 0, k, k)) // U = V1ᵀ, upper triangular unit diag
	defer putWork(uP)
	// W = V1ᵀ·C1 = U·C1
	matrix.Copy(w, c.View(0, 0, k, n))
	blas.Dtrmm(blas.Left, blas.NoTrans, true, 1, &u, w)
	// W += V2ᵀ·C2
	if m > k && !seedOnly {
		blas.Dgemm(blas.Trans, blas.NoTrans, 1, v.View(k, 0, m-k, k), c.View(k, 0, m-k, n), 1, w)
	}
	// W = op(T)·W
	blas.Dtrmm(blas.Left, trans, false, 1, t, w)
	// C2 -= V2·W
	if m > k {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, -1, v.View(k, 0, m-k, k), w, seedBeta(seedOnly), c.View(k, 0, m-k, n))
	}
	// C1 -= V1·W = Uᵀ·W; W has no reader after this, so it is
	// multiplied in place.
	blas.Dtrmm(blas.Left, blas.Trans, true, 1, &u, w)
	for j := 0; j < n; j++ {
		blas.Daxpy(-1, w.Col(j), c.Col(j)[:k])
	}
}

// quad is the two triangles of a block of four reflectors: the strict
// lower triangle of V1 (vil = V1[i,l]) and T (tli = T[l,i]). Its methods
// are larfb's three triangular multiplies written out for that width,
// one column of W at a time. A 128×64 leaf spends a quarter of its time
// in them when they go through Dtrmm's column loops — sixteen blocks,
// sixty columns, a dozen multiply-adds each — and a twentieth this way.
// Every element is summed exactly as those loops sum it: the diagonal
// term, then increasing l, one rounding per multiply and per add, which
// is the order R is pinned to (TestLarfbNarrowBitwise).
type quad struct {
	v10, v20, v21, v30, v31, v32                     float64
	t00, t01, t11, t02, t12, t22, t03, t13, t23, t33 float64
}

func loadQuad(v, t *matrix.Dense) quad {
	a, b, ld := v.Data, t.Data, t.Stride
	return quad{
		v10: a[1], v20: a[2], v30: a[3], v21: a[v.Stride+2], v31: a[v.Stride+3], v32: a[2*v.Stride+3],
		t00: b[0], t01: b[ld], t11: b[ld+1], t02: b[2*ld], t12: b[2*ld+1], t22: b[2*ld+2],
		t03: b[3*ld], t13: b[3*ld+1], t23: b[3*ld+2], t33: b[3*ld+3],
	}
}

// headT computes W = V1ᵀ·C1 from the top four rows of c.
func (q *quad) headT(c, w *matrix.Dense) {
	for j := 0; j < c.Cols; j++ {
		cj := c.Data[j*c.Stride : j*c.Stride+4 : j*c.Stride+4]
		x := w.Data[j*4 : j*4+4 : j*4+4]
		x0, x1, x2, x3 := cj[0], cj[1], cj[2], cj[3]
		x0 += q.v10 * x1
		x0 += q.v20 * x2
		x1 += q.v21 * x2
		x0 += q.v30 * x3
		x1 += q.v31 * x3
		x2 += q.v32 * x3
		x[0], x[1], x[2], x[3] = x0, x1, x2, x3
	}
}

// finish computes W = op(T)·W and subtracts V1·W from the top four rows
// of c.
func (q *quad) finish(trans blas.Transpose, w, c *matrix.Dense) {
	for j := 0; j < c.Cols; j++ {
		x := w.Data[j*4 : j*4+4 : j*4+4]
		x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
		if trans == blas.Trans {
			s := x3 * q.t33
			s += q.t03 * x0
			s += q.t13 * x1
			s += q.t23 * x2
			x3 = s
			s = x2 * q.t22
			s += q.t02 * x0
			s += q.t12 * x1
			x2 = s
			s = x1 * q.t11
			s += q.t01 * x0
			x1 = s
			x0 *= q.t00
		} else {
			y1, y2, y3 := x1, x2, x3
			x0 = q.t00 * x0
			x0 += q.t01 * y1
			x1 = q.t11 * y1
			x0 += q.t02 * y2
			x1 += q.t12 * y2
			x2 = q.t22 * y2
			x0 += q.t03 * y3
			x1 += q.t13 * y3
			x2 += q.t23 * y3
			x3 = q.t33 * y3
		}
		x[0], x[1], x[2], x[3] = x0, x1, x2, x3
		cj := c.Data[j*c.Stride : j*c.Stride+4 : j*c.Stride+4]
		s := x3
		s += q.v30 * x0
		s += q.v31 * x1
		s += q.v32 * x2
		cj[3] -= s
		s = x2
		s += q.v20 * x0
		s += q.v21 * x1
		cj[2] -= s
		s = x1
		s += q.v10 * x0
		cj[1] -= s
		cj[0] -= x0
	}
}

// lowerAsUpperT returns U = V1ᵀ where V1 is the unit lower triangular k×k
// head of the reflector block: Dtrmm only handles upper triangular
// operands, so applying V1 becomes Dtrmm with U transposed and applying
// V1ᵀ becomes Dtrmm with U untransposed. U lives on pooled storage —
// only its diagonal and strict upper triangle are defined, which is all
// Dtrmm ever reads; the caller releases the second return with putWork.
func lowerAsUpperT(v1 *matrix.Dense) (matrix.Dense, *[]float64) {
	k := v1.Rows
	u, uP := getMat(k, k)
	for j := 0; j < k; j++ {
		// Row j of V1 left of the diagonal becomes column j of U above it.
		ucol := u.Col(j)
		for i, row := 0, v1.Data[j:]; i < j; i++ {
			ucol[i] = row[i*v1.Stride]
		}
		ucol[j] = 1
	}
	return u, uP
}

// Dgeqrf computes the blocked Householder QR factorization of a with
// panel width nb (DefaultBlock when nb <= 0). Storage conventions match
// Dgeqr2.
func Dgeqrf(a *matrix.Dense, tau []float64, nb int) {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if len(tau) < k {
		panic("lapack: Dgeqrf tau too short")
	}
	defer telemetry.TimeKernel("dgeqrf", flops.GEQRF(m, n))()
	if nb <= 0 {
		nb = DefaultBlock
	}
	// Skinny matrices are one panel: panelQR's flat geqr2NB-wide inner
	// blocking issues strictly fewer trailing-update flops than nesting it
	// inside an outer nb-wide sweep (the outer Dlarfb re-applies k=nb
	// reflectors to columns the inner level already updated), so the nb
	// hint is ignored up to DefaultBlock columns.
	if nb >= k || k <= DefaultBlock {
		panelQR(a, tau)
		return
	}
	// T's lower triangle is never read (Dlarft writes, applyT's Dtrmm
	// reads only the upper triangle), so pooled dirty storage is safe.
	t, tP := getMat(nb, nb)
	defer putWork(tP)
	for j := 0; j < k; j += nb {
		jb := min(nb, k-j)
		panel := a.View(j, j, m-j, jb)
		panelQR(panel, tau[j:j+jb])
		if j+jb < n {
			tb := t.View(0, 0, jb, jb)
			Dlarft(panel, tau[j:j+jb], tb)
			Dlarfb(blas.Trans, panel, tb, a.View(j, j+jb, m-j, n-j-jb))
		}
	}
}

// TriuCopy returns the leading n×n upper triangle of a factored matrix as
// a fresh compact matrix (the R factor after Dgeqr2/Dgeqrf). For m < n the
// full upper-trapezoidal m×n R is returned.
func TriuCopy(a *matrix.Dense) *matrix.Dense {
	k := min(a.Rows, a.Cols)
	r := matrix.New(k, a.Cols)
	for j := 0; j < a.Cols; j++ {
		for i := 0; i <= min(j, k-1); i++ {
			r.Set(i, j, a.At(i, j))
		}
	}
	return r
}
