package blas

import "gridqr/internal/matrix"

// gemmPackMinMK is the m·k panel size at which Dgemm switches from the
// unpacked kernels to the packed engine: below it the O(mk+kn) packing
// copies cost more than they save. The criterion is deliberately a
// function of m and k only — never n — so that processing a wide update
// in column chunks (the ScaLAPACK lookahead drain, Dlarfb panels) picks
// the same kernel, and therefore bitwise the same column values, as one
// wide call. It is computed in float64 because m·k overflows int32 at
// sizes the 32-bit CI cross-build must still handle. A var, not a
// const, so the tuning sweep and the table tests can force either path.
var gemmPackMinMK float64 = 1 << 12

// Dgemm computes C = alpha*op(A)*op(B) + beta*C. Three kernels, chosen
// from the transposes, m and k: the skinny kernels (skinny.go) take A·B
// with k ≤ skinnyDim and Aᵀ·B with m ≤ skinnyDim — the two products of a
// block reflector — at any size, serially and in place; other products
// go through the packed, cache-blocked engine (engine.go), which
// parallelizes over macro-tiles on a persistent worker pool, unless they
// are too small to repay packing. Output is bitwise deterministic for a
// given shape and tuning, independent of the worker count.
func Dgemm(ta, tb Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	m, ka := opShape(ta, a)
	kb, n := opShape(tb, b)
	if ka != kb || c.Rows != m || c.Cols != n {
		panic("blas: Dgemm shape mismatch")
	}
	gemm(ta, tb, alpha, a, b, beta, c)
}

// gemm is Dgemm past its shape check: the level-3 blocked routines
// (Dtrmm/Dtrsm/Dsyrk) delegate their square updates, whose shapes they
// built, to it.
func gemm(ta, tb Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	m, n := c.Rows, c.Cols
	_, k := opShape(ta, a)
	if m == 0 || n == 0 {
		return
	}
	// short is the extent the skinny kernels want short.
	short := k
	if ta == Trans {
		short = m
	}
	if m >= mr && float64(m)*float64(k) >= gemmPackMinMK && (tb == Trans || short > skinnyDim) {
		gemmPacked(ta, tb, alpha, a, b, beta, c)
		return
	}
	gemmSmall(ta, tb, alpha, a, b, beta, c, 0, n)
}

// gemmSmall computes columns [j0, j1) of C without packing: for Bᵀ a
// column sweep whose innermost loop runs down contiguous columns, and
// the skinny kernels otherwise. It is what the packed engine is verified
// against.
func gemmSmall(ta, tb Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, j0, j1 int) {
	if tb == NoTrans {
		if j1-j0 < c.Cols {
			b, c = b.View(0, j0, b.Rows, j1-j0), c.View(0, j0, c.Rows, j1-j0)
		}
		if ta == NoTrans {
			gemmNN(alpha, a, b, beta, c)
		} else {
			gemmTN(alpha, a, b, beta, c)
		}
		return
	}
	k := b.Cols
	for j := j0; j < j1; j++ {
		cj := c.Col(j)
		if beta == 0 {
			for i := range cj {
				cj[i] = 0
			}
		} else if beta != 1 {
			Dscal(beta, cj)
		}
		if ta == NoTrans {
			for l := 0; l < k; l++ {
				f := alpha * b.At(j, l)
				if f == 0 {
					continue
				}
				al := a.Col(l)
				for i := range cj {
					cj[i] += f * al[i]
				}
			}
			continue
		}
		for i := range cj {
			ai := a.Col(i)
			var s float64
			for l := 0; l < k; l++ {
				s += ai[l] * b.At(j, l)
			}
			cj[i] += alpha * s
		}
	}
}

func opShape(t Transpose, a *matrix.Dense) (rows, cols int) {
	if t == NoTrans {
		return a.Rows, a.Cols
	}
	return a.Cols, a.Rows
}
