package lapack

import (
	"gridqr/internal/blas"
	"gridqr/internal/matrix"
)

// This file implements the structured QR kernel at the heart of TSQR: the
// factorization of two stacked n×n upper triangular matrices
//
//	[ R1 ]          [ R ]
//	[ R2 ]  =  Q ·  [ 0 ]
//
// exploiting the triangular structure so the cost is 2n³/3 flops instead
// of the 10n³/3 a dense 2n×n QR would take (LAPACK's DTPQRT2 with L = N).
// The reflector for column j is v_j = [e_j; b_j] with b_j nonzero only in
// rows 0..j, so V (stored where R2 was) stays upper triangular.

// Dtpqrt2 factors [r1; r2] where both operands are n×n upper triangular.
// On return r1 holds the new R factor, r2 holds the upper triangular V
// block of the reflectors, and tau (length n) their scaling factors.
// Strictly-lower entries of the inputs are assumed zero and never read.
func Dtpqrt2(r1, r2 *matrix.Dense, tau []float64) {
	n := r1.Rows
	if r1.Cols != n || r2.Rows != n || r2.Cols != n {
		panic("lapack: Dtpqrt2 operands must be square and equal size")
	}
	if len(tau) < n {
		panic("lapack: Dtpqrt2 tau too short")
	}
	tpqrt2Panel(r1, r2, tau, 0, n)
}

// ApplyStackQ applies op(Q) from a Dtpqrt2 factorization to the stacked
// pair [c1; c2], where c1 is n×p and c2 is n×p, in place. v and tau are
// the outputs of Dtpqrt2 (v upper triangular). With Q = H_0···H_{n−1},
// trans=false applies Q (reverse reflector order) and trans=true applies
// Qᵀ (forward order).
func ApplyStackQ(v *matrix.Dense, tau []float64, trans bool, c1, c2 *matrix.Dense) {
	n := v.Rows
	if v.Cols != n || c1.Rows != n || c2.Rows != n || c1.Cols != c2.Cols {
		panic("lapack: ApplyStackQ shape mismatch")
	}
	p := c1.Cols
	apply := func(j int) {
		t := tau[j]
		if t == 0 {
			return
		}
		bj := v.Col(j)[:j+1]
		for k := 0; k < p; k++ {
			ck2 := c2.Col(k)[:j+1]
			f := t * (c1.At(j, k) + blas.Ddot(bj, ck2))
			c1.Set(j, k, c1.At(j, k)-f)
			blas.Daxpy(-f, bj, ck2)
		}
	}
	if trans {
		for j := 0; j < n; j++ {
			apply(j)
		}
	} else {
		for j := n - 1; j >= 0; j-- {
			apply(j)
		}
	}
}

// stackQRPanel is StackQR's kernel rule, a function of n alone so that
// R's bits never depend on who merges: the panel width Dtpqrt factors n×n
// triangles with, or 0 for the column-wise Dtpqrt2. Dtpqrt2 sweeps the
// rectangle right of each column with one Dgemv and one Dger, and while
// the pair of triangles sits in L1 that beats every panel width — the
// block reflector's products are then a few hundred flops a call. From
// 128 columns the products win, narrow panels most: 8 is the best or
// within 10% of it at every order measured, so it is the one width
// (BenchmarkDtpqrtBlockedVsUnblocked; DESIGN.md "Panel kernels" has the
// n × nb table. Median µs at n = 64, 96, 112, 128, 256, 1024: column-wise
// 41, 87, 131, 212, 1500, 132000; nb = 8 54, 109, 161, 186, 1100, 43600).
func stackQRPanel(n int) int {
	if n < 128 {
		return 0
	}
	return 8
}

// StackQR is the value-level TSQR reduction operation: given two n×n
// upper triangular factors it returns the R factor of [r1; r2] along with
// the implicit Q (v, tau) needed to reconstruct the orthogonal factor.
// Inputs are not modified. The kernel choice depends only on n, so
// results are reproducible for a given size.
func StackQR(r1, r2 *matrix.Dense) (r, v *matrix.Dense, tau []float64) {
	r, v, tau = r1.Clone(), r2.Clone(), make([]float64, r1.Rows)
	StackQRInPlace(r, v, tau)
	return r, v, tau
}

// StackQRInPlace is StackQR for a caller that owns both operands — a
// fold's running R, a reduction tree's merge: r ← R, v ← V, tau filled.
func StackQRInPlace(r, v *matrix.Dense, tau []float64) {
	n := r.Rows
	nb := stackQRPanel(n)
	if nb == 0 {
		Dtpqrt2(r, v, tau)
	} else {
		Dtpqrt(r, v, tau, nb)
	}
	// Clear any strictly-lower garbage so r is exactly triangular.
	for j := 0; j < r.Cols; j++ {
		clear(r.Col(j)[j+1:])
	}
}
