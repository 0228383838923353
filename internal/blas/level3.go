package blas

import (
	"gridqr/internal/flops"
	"gridqr/internal/matrix"
	"gridqr/internal/telemetry"
)

// Side selects whether the triangular/orthogonal operand multiplies from
// the left or the right in Dtrmm/Dtrsm.
type Side bool

const (
	Left  Side = false
	Right Side = true
)

// triBlock is the order below which the blocked triangular routines
// (Dtrmm/Dtrsm) and Dsyrk's diagonal blocks run their substitution/sweep
// base cases directly. Above it they split the triangle and push the
// square off-diagonal work into the packed GEMM engine, which is where
// the O(n²·cols) bulk of the flops then executes at BLAS-3 rates.
const triBlock = 64

// Dtrmm computes B = alpha*op(T)*B (side Left) or B = alpha*B*op(T) (side
// Right), where T is upper triangular, optionally unit-diagonal, stored in
// the upper triangle of t.
func Dtrmm(side Side, trans Transpose, unit bool, alpha float64, t, b *matrix.Dense) {
	n := t.Rows
	if t.Cols != n {
		panic("blas: Dtrmm triangular operand not square")
	}
	other := b.Cols
	if side == Left {
		if b.Rows != n {
			panic("blas: Dtrmm shape mismatch")
		}
	} else {
		if b.Cols != n {
			panic("blas: Dtrmm shape mismatch")
		}
		other = b.Rows
	}
	defer telemetry.TimeKernel("dtrmm", flops.TRMM(n, other, unit))()
	trmm(side, trans, unit, alpha, t, b)
}

// trmm is the recursive, uninstrumented body of Dtrmm: split T into
// [T11 T12; 0 T22], run the halves in the order that lets B update in
// place, and hand the rectangular T12 coupling to the packed engine.
func trmm(side Side, trans Transpose, unit bool, alpha float64, t, b *matrix.Dense) {
	n := t.Rows
	if n <= triBlock {
		trmmBase(side, trans, unit, alpha, t, b)
		return
	}
	h := n / 2
	t11 := t.View(0, 0, h, h)
	t12 := t.View(0, h, h, n-h)
	t22 := t.View(h, h, n-h, n-h)
	if side == Left {
		b1 := b.View(0, 0, h, b.Cols)
		b2 := b.View(h, 0, n-h, b.Cols)
		if trans == NoTrans {
			// B1 ← alpha(T11·B1 + T12·B2) needs the old B2: top first.
			trmm(side, trans, unit, alpha, t11, b1)
			gemm(NoTrans, NoTrans, alpha, t12, b2, 1, b1)
			trmm(side, trans, unit, alpha, t22, b2)
			return
		}
		// op(T) = [T11ᵀ 0; T12ᵀ T22ᵀ]: B2 ← alpha(T12ᵀ·B1 + T22ᵀ·B2)
		// needs the old B1: bottom first.
		trmm(side, trans, unit, alpha, t22, b2)
		gemm(Trans, NoTrans, alpha, t12, b1, 1, b2)
		trmm(side, trans, unit, alpha, t11, b1)
		return
	}
	b1 := b.View(0, 0, b.Rows, h)
	b2 := b.View(0, h, b.Rows, n-h)
	if trans == NoTrans {
		// B2 ← alpha(B1·T12 + B2·T22) needs the old B1: right first.
		trmm(side, trans, unit, alpha, t22, b2)
		gemm(NoTrans, NoTrans, alpha, b1, t12, 1, b2)
		trmm(side, trans, unit, alpha, t11, b1)
		return
	}
	// B·op(T) with op(T) = [T11ᵀ 0; T12ᵀ T22ᵀ]:
	// B1 ← alpha(B1·T11ᵀ + B2·T12ᵀ) needs the old B2: left first.
	trmm(side, trans, unit, alpha, t11, b1)
	gemm(NoTrans, Trans, alpha, b2, t12, 1, b1)
	trmm(side, trans, unit, alpha, t22, b2)
}

// trmmBase is the unblocked triangular multiply, organized so the
// innermost loops run down contiguous columns where the storage allows.
func trmmBase(side Side, trans Transpose, unit bool, alpha float64, t, b *matrix.Dense) {
	n := t.Rows
	if side == Left {
		for j := 0; j < b.Cols; j++ {
			trmmLeft(trans, unit, alpha, t, b.Col(j))
		}
		return
	}
	// B = alpha * B * op(T): process columns in an order that lets us
	// update in place.
	if trans == NoTrans {
		for j := n - 1; j >= 0; j-- {
			cj := b.Col(j)
			var d float64 = 1
			if !unit {
				d = t.At(j, j)
			}
			for i := range cj {
				cj[i] *= alpha * d
			}
			for l := 0; l < j; l++ {
				f := alpha * t.At(l, j)
				if f == 0 {
					continue
				}
				cl := b.Col(l)
				for i := range cj {
					cj[i] += f * cl[i]
				}
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		cj := b.Col(j)
		var d float64 = 1
		if !unit {
			d = t.At(j, j)
		}
		for i := range cj {
			cj[i] *= alpha * d
		}
		for l := j + 1; l < n; l++ {
			f := alpha * t.At(j, l)
			if f == 0 {
				continue
			}
			cl := b.Col(l)
			for i := range cj {
				cj[i] += f * cl[i]
			}
		}
	}
}

// trmmLeft computes x = alpha·op(T)·x for one column of B. Element i is
// summed as (diagonal term) + T[i,l]·x[l] in increasing l, one rounding
// per multiply and per add — the order the QR kernels' R factors are
// pinned to bit for bit — but the loops walk T by columns: NoTrans adds
// column l of T into the partial sums above it (x[l] is still the input
// when its turn comes), Trans is a dot down column i.
func trmmLeft(trans Transpose, unit bool, alpha float64, t *matrix.Dense, x []float64) {
	n, ld := t.Rows, t.Stride
	if trans == NoTrans {
		for l := 0; l < n; l++ {
			tl := t.Data[l*ld : l*ld+l+1]
			xl, xs := x[l], x[:l]
			for i, tv := range tl[:l] {
				xs[i] += tv * xl
			}
			if !unit {
				x[l] = tl[l] * xl
			}
		}
		if alpha != 1 {
			for i := range x[:n] {
				x[i] *= alpha
			}
		}
		return
	}
	for i := n - 1; i >= 0; i-- {
		ti := t.Data[i*ld : i*ld+i+1]
		s := x[i]
		if !unit {
			s *= ti[i]
		}
		xs := x[:i]
		for l, tv := range ti[:i] {
			s += tv * xs[l]
		}
		x[i] = alpha * s
	}
}

// Dtrsm solves op(T)*X = alpha*B (side Left) or X*op(T) = alpha*B (side
// Right) for X, overwriting B. T is upper triangular, optionally
// unit-diagonal.
func Dtrsm(side Side, trans Transpose, unit bool, alpha float64, t, b *matrix.Dense) {
	n := t.Rows
	if t.Cols != n {
		panic("blas: Dtrsm triangular operand not square")
	}
	other := b.Cols
	if side == Left {
		if b.Rows != n {
			panic("blas: Dtrsm shape mismatch")
		}
	} else {
		if b.Cols != n {
			panic("blas: Dtrsm shape mismatch")
		}
		other = b.Rows
	}
	defer telemetry.TimeKernel("dtrsm", flops.TRSM(n, other, unit))()
	trsm(side, trans, unit, alpha, t, b)
}

// trsm is the recursive, uninstrumented body of Dtrsm: solve one half,
// eliminate its contribution from the other half with one packed GEMM
// (which also folds in the alpha scaling via beta), and recurse.
func trsm(side Side, trans Transpose, unit bool, alpha float64, t, b *matrix.Dense) {
	n := t.Rows
	if n <= triBlock {
		trsmBase(side, trans, unit, alpha, t, b)
		return
	}
	h := n / 2
	t11 := t.View(0, 0, h, h)
	t12 := t.View(0, h, h, n-h)
	t22 := t.View(h, h, n-h, n-h)
	if side == Left {
		b1 := b.View(0, 0, h, b.Cols)
		b2 := b.View(h, 0, n-h, b.Cols)
		if trans == NoTrans {
			// Back substitution: X2 first, then B1 ← alpha·B1 − T12·X2.
			trsm(side, trans, unit, alpha, t22, b2)
			gemm(NoTrans, NoTrans, -1, t12, b2, alpha, b1)
			trsm(side, trans, unit, 1, t11, b1)
			return
		}
		// op(T) = [T11ᵀ 0; T12ᵀ T22ᵀ]: forward, X1 first.
		trsm(side, trans, unit, alpha, t11, b1)
		gemm(Trans, NoTrans, -1, t12, b1, alpha, b2)
		trsm(side, trans, unit, 1, t22, b2)
		return
	}
	b1 := b.View(0, 0, b.Rows, h)
	b2 := b.View(0, h, b.Rows, n-h)
	if trans == NoTrans {
		// X·T = alpha·B: left to right, X1 first.
		trsm(side, trans, unit, alpha, t11, b1)
		gemm(NoTrans, NoTrans, -1, b1, t12, alpha, b2)
		trsm(side, trans, unit, 1, t22, b2)
		return
	}
	// X·op(T) with op(T) = [T11ᵀ 0; T12ᵀ T22ᵀ]: right to left, X2 first.
	trsm(side, trans, unit, alpha, t22, b2)
	gemm(NoTrans, Trans, -1, b2, t12, alpha, b1)
	trsm(side, trans, unit, 1, t11, b1)
}

// subScaled computes y[i] -= f·x[i], one rounding per multiply and per
// subtract, four elements a turn and no bounds check inside: as a plain
// element loop the right-side solve's time hung on where the loop
// happened to be laid out (1.2–2.2 ms on 1024×64 from one build to the
// next; 0.9–1.2 this way).
func subScaled(f float64, x, y []float64) {
	x = x[:len(y)]
	i := 0
	for ; i+4 <= len(y); i += 4 {
		xs, ys := x[i:i+4:i+4], y[i:i+4:i+4]
		ys[0] -= f * xs[0]
		ys[1] -= f * xs[1]
		ys[2] -= f * xs[2]
		ys[3] -= f * xs[3]
	}
	for ; i < len(y); i++ {
		y[i] -= f * x[i]
	}
}

// trsmBase is the unblocked triangular solve by substitution.
func trsmBase(side Side, trans Transpose, unit bool, alpha float64, t, b *matrix.Dense) {
	n := t.Rows
	if side == Left {
		for j := 0; j < b.Cols; j++ {
			col := b.Col(j)
			if alpha != 1 {
				Dscal(alpha, col)
			}
			if trans == NoTrans {
				for i := n - 1; i >= 0; i-- {
					s := col[i]
					for l := i + 1; l < n; l++ {
						s -= t.At(i, l) * col[l]
					}
					if !unit {
						s /= t.At(i, i)
					}
					col[i] = s
				}
			} else {
				for i := 0; i < n; i++ {
					s := col[i]
					for l := 0; l < i; l++ {
						s -= t.At(l, i) * col[l]
					}
					if !unit {
						s /= t.At(i, i)
					}
					col[i] = s
				}
			}
		}
		return
	}
	if alpha != 1 {
		for j := 0; j < n; j++ {
			Dscal(alpha, b.Col(j))
		}
	}
	if trans == NoTrans {
		// X*T = B: solve column by column left to right.
		for j := 0; j < n; j++ {
			cj := b.Col(j)
			for l := 0; l < j; l++ {
				f := t.At(l, j)
				if f == 0 {
					continue
				}
				subScaled(f, b.Col(l), cj)
			}
			if !unit {
				Dscal(1/t.At(j, j), cj)
			}
		}
		return
	}
	// X*Tᵀ = B: right to left.
	for j := n - 1; j >= 0; j-- {
		cj := b.Col(j)
		for l := j + 1; l < n; l++ {
			f := t.At(j, l)
			if f == 0 {
				continue
			}
			subScaled(f, b.Col(l), cj)
		}
		if !unit {
			Dscal(1/t.At(j, j), cj)
		}
	}
}

// Dsyrk computes the upper triangle of C = alpha*opᵀ(A)*op(A) + beta*C
// with op selected so the result is C += alpha*AᵀA (trans=Trans) or
// C += alpha*AAᵀ (trans=NoTrans). Only the upper triangle of C is
// touched. Off-diagonal blocks are rank-k GEMM updates through the
// packed engine; diagonal blocks run a small symmetric sweep with the
// contraction as the outer loop, so every inner access is down a
// contiguous column in both transpose cases.
func Dsyrk(trans Transpose, alpha float64, a *matrix.Dense, beta float64, c *matrix.Dense) {
	var n int
	if trans == Trans {
		n = a.Cols
	} else {
		n = a.Rows
	}
	if c.Rows != n || c.Cols != n {
		panic("blas: Dsyrk shape mismatch")
	}
	k := a.Rows + a.Cols - n // the contracted dimension, whichever op
	defer telemetry.TimeKernel("dsyrk", flops.SYRK(n, k))()
	for j0 := 0; j0 < n; j0 += triBlock {
		jb := min(triBlock, n-j0)
		if j0 > 0 {
			// Strictly-upper block C[0:j0, j0:j0+jb]: a plain GEMM.
			cb := c.View(0, j0, j0, jb)
			if trans == Trans {
				gemm(Trans, NoTrans, alpha, a.View(0, 0, k, j0), a.View(0, j0, k, jb), beta, cb)
			} else {
				gemm(NoTrans, Trans, alpha, a.View(0, 0, j0, k), a.View(j0, 0, jb, k), beta, cb)
			}
		}
		syrkDiag(trans, alpha, a, beta, c, j0, jb, k)
	}
}

// syrkDiag updates the upper triangle of the jb×jb diagonal block of C
// at (j0, j0).
func syrkDiag(trans Transpose, alpha float64, a *matrix.Dense, beta float64, c *matrix.Dense, j0, jb, k int) {
	// Apply beta once, then accumulate rank-1 terms with the contracted
	// index outermost: col is a contiguous slice in both cases.
	for j := 0; j < jb; j++ {
		cj := c.Col(j0 + j)[j0 : j0+j+1]
		if beta == 0 {
			for i := range cj {
				cj[i] = 0
			}
		} else if beta != 1 {
			for i := range cj {
				cj[i] *= beta
			}
		}
	}
	if trans == Trans {
		// C += alpha·AᵀA on the block: columns of A are contiguous. A
		// block of at most four columns is a single row of tiles — none
		// lies under the diagonal to be skipped — and its ten dots beat
		// the tiles until the columns are long enough for the tiles'
		// operand reuse to tell (n = 4, dots / tiles: 0.15 / 0.22–0.45 µs
		// at k = 32, 0.21 / 0.44–0.57 at 128, 1.5 / 1.3–1.9 at 1024,
		// 484–566 / 235–259 at 131072).
		if jb <= 4 && k < 1024 {
			for j := 0; j < jb; j++ {
				aj := a.Col(j0 + j)
				cj := c.Col(j0 + j)[j0:]
				for i := 0; i <= j; i++ {
					cj[i] += alpha * Ddot(a.Col(j0+i), aj)
				}
			}
			return
		}
		// Otherwise the upper tiles of the skinny AᵀB kernel, both
		// operands the block's columns of A (1.5–3 times the dots' rate
		// from 16 columns up at any k).
		ab := a.View(0, j0, k, jb)
		gemmTNAdd(alpha, ab, ab, c.View(j0, j0, jb, jb), true)
		return
	}
	// C += alpha·AAᵀ on the block: iterate the contraction l outermost so
	// each step reads one contiguous column segment of A, replacing the
	// old row-major At(i, l) traversal that was quadratic in cache misses.
	for l := 0; l < k; l++ {
		col := a.Col(l)[j0 : j0+jb]
		for j := 0; j < jb; j++ {
			f := alpha * col[j]
			if f == 0 {
				continue
			}
			cj := c.Col(j0 + j)[j0:]
			for i := 0; i <= j; i++ {
				cj[i] += f * col[i]
			}
		}
	}
}
