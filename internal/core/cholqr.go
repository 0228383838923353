package core

import (
	"gridqr/internal/blas"
	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// CholeskyQR is the communication-minimal but numerically fragile
// orthogonalization scheme the paper's Section II-E alludes to ("currently
// these packages rely on unstable orthogonalization schemes to avoid too
// many communications"): the Gram matrix G = AᵀA is assembled with a
// single allreduce, R is its Cholesky factor, and Q = A·R⁻¹.
//
// One allreduce per factorization — even fewer messages than TSQR — but
// the loss of orthogonality grows with the square of A's condition
// number, and the factorization fails outright (Gram matrix numerically
// indefinite) once cond(A) approaches 1/√ε. TSQR delivers the same
// asymptotic message count with unconditional Householder stability,
// which is precisely the paper's argument.

// CholQRResult holds the outcome.
type CholQRResult struct {
	// OK reports whether the Cholesky factorization succeeded; false
	// means the Gram matrix was numerically indefinite (A too
	// ill-conditioned for this scheme).
	OK bool
	// R is the N×N upper triangular factor, replicated on every rank
	// (nil in cost-only mode).
	R *matrix.Dense
	// QLocal is this rank's row block of Q (nil in cost-only mode or on
	// failure).
	QLocal *matrix.Dense
}

// CholeskyQR orthogonalizes the distributed matrix with the Gram-matrix
// scheme. Input.Local is not modified.
func CholeskyQR(comm *mpi.Comm, in Input) *CholQRResult {
	in.validate(comm)
	ctx := comm.Ctx()
	n := in.N
	myRows := in.Offsets[comm.Rank()+1] - in.Offsets[comm.Rank()]
	res := &CholQRResult{OK: true} // a cost-only world cannot fail

	// --- Single allreduce: G = Σ_p A_pᵀ A_p ---
	gram := make([]float64, n*n)
	ctx.Kernel("compute", float64(myRows)*float64(n)*float64(n), n, func() {
		g := matrix.FromColMajor(n, n, gram)
		blas.Dsyrk(blas.Trans, 1, in.Local, 0, g)
		for c := 0; c < n; c++ { // mirror for the allreduce
			for r := c + 1; r < n; r++ {
				g.Set(r, c, g.At(c, r))
			}
		}
	})
	gram = comm.Allreduce(gram, mpi.OpSum)

	// --- Replicated Cholesky; failure is detected identically everywhere
	// and charged like success, so both modes cost the same ---
	ctx.Kernel("compute", flops.GEQRF(n, n)/4+float64(myRows)*float64(n)*float64(n), n, func() {
		g := matrix.FromColMajor(n, n, gram)
		r := matrix.New(n, n)
		lapack.Dlacpy(lapack.CopyUpper, g, r)
		if !lapack.Dpotrf(r) {
			res.OK = false
			return
		}
		// Zero the untouched strictly-lower part for a clean R.
		for j := 0; j < n; j++ {
			for i := j + 1; i < n; i++ {
				r.Set(i, j, 0)
			}
		}
		res.R = r
		// Q = A·R⁻¹, block-local.
		res.QLocal = in.Local.Clone()
		blas.Dtrsm(blas.Right, blas.NoTrans, false, 1, r, res.QLocal)
	})
	return res
}
