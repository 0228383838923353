package lapack

import (
	"gridqr/internal/blas"
	"gridqr/internal/flops"
	"gridqr/internal/matrix"
	"gridqr/internal/telemetry"
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
	for j := 0; j < n; j++ {
		// Zero r2[0:j+1, j] against the diagonal element r1[j, j].
		bj := r2.Col(j)[:j+1]
		beta, t := Dlarfg(r1.At(j, j), bj)
		tau[j] = t
		r1.Set(j, j, beta)
		if t == 0 {
			continue
		}
		// Update remaining columns k > j of [r1; r2]:
		//   w = r1[j,k] + b_jᵀ·r2[0:j+1, k]
		//   r1[j,k]        -= t·w
		//   r2[0:j+1, k]   -= t·w·b_j
		// The known-zero wedge below row j of column k never enters: the
		// dot and axpy run only over the stored rows 0..j of b_j.
		for k := j + 1; k < n; k++ {
			ck := r2.Col(k)[:j+1]
			f := t * (r1.At(j, k) + blas.Ddot(bj, ck))
			r1.Set(j, k, r1.At(j, k)-f)
			blas.Daxpy(-f, bj, ck)
		}
	}
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
	defer telemetry.TimeKernel("stack_qr_apply", flops.StackApply(n, c1.Cols))()
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

// stackQRBlockMin and stackQRNB pick StackQR's kernel: below the
// threshold the fused column-wise Dtpqrt2 wins because the two stored
// triangles fit in cache and its dot/axpy kernels run at memory speed;
// from the threshold up (the triangle pair outgrows the L2) the blocked
// Dtpqrt's gemm-based trailing updates amortize the misses. The
// crossover sits between n = 768 and n = 1024 on the reference machine
// (BenchmarkDtpqrtBlockedVsUnblocked); nb = 32 is the best panel width
// at and above it. Variables (not consts) so tuning benchmarks can
// sweep them; never mutated at runtime.
var (
	stackQRBlockMin = 1024
	stackQRNB       = 32
)

// StackQR is the value-level TSQR reduction operation: given two n×n
// upper triangular factors it returns the R factor of [r1; r2] along with
// the implicit Q (v, tau) needed to reconstruct the orthogonal factor.
// Inputs are not modified. The kernel choice depends only on n, so
// results are reproducible for a given size.
func StackQR(r1, r2 *matrix.Dense) (r, v *matrix.Dense, tau []float64) {
	r, v, tau = r1.Clone(), r2.Clone(), make([]float64, r1.Rows)
	stackQR(r, v, tau)
	return r, v, tau
}

// stackQR is StackQR in place, for callers that own their operands (the
// fold's running R): r ← R, v ← V, tau filled.
func stackQR(r, v *matrix.Dense, tau []float64) {
	n := r.Rows
	defer telemetry.TimeKernel("stack_qr", flops.TPQRT2(n))()
	if n >= stackQRBlockMin {
		Dtpqrt(r, v, tau, stackQRNB)
	} else {
		Dtpqrt2(r, v, tau)
	}
	// Clear any strictly-lower garbage so r is exactly triangular.
	for j := 0; j < r.Cols; j++ {
		clear(r.Col(j)[j+1:])
	}
}
