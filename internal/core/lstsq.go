package core

import (
	"math"

	"gridqr/internal/blas"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// LeastSquares solves the overdetermined system min‖A·x − b‖₂ for a
// row-distributed tall matrix A and right-hand sides b, through the TSQR
// factorization: x = R⁻¹·(Qᵀ·b) with Q applied implicitly through the
// reduction tree (never formed). This is the workhorse use of
// tall-and-skinny QR — regression over samples scattered across a grid —
// and inherits TSQR's communication profile: one tuned reduction for the
// factorization, one for the projections.
//
// BLocal is this rank's rows of the M×nrhs right-hand-side block; the
// returned N×nrhs solution is replicated on every rank. The residual
// norms ‖A·x − b‖₂ per right-hand side come directly from the orthogonal
// coordinates (‖ bottom of Qᵀb ‖ — exact, no cancellation) and are also
// replicated. Input.Local is overwritten (like Factorize); one domain per
// process is used regardless of cfg.DomainsPerCluster.
func LeastSquares(comm *mpi.Comm, in Input, bLocal *matrix.Dense, cfg Config) (x *matrix.Dense, resid []float64) {
	ctx := comm.Ctx()
	if !ctx.HasData() {
		panic("core: LeastSquares requires data mode")
	}
	n := in.N
	myRows := in.Offsets[comm.Rank()+1] - in.Offsets[comm.Rank()]
	if bLocal == nil || bLocal.Rows != myRows {
		panic("core: LeastSquares rhs block mismatch")
	}
	nrhs := bLocal.Cols

	cfg.WantQ = false
	cfg.KeepFactors = true
	cfg.DomainsPerCluster = 0 // implicit applies need per-process domains
	res := Factorize(comm, in, cfg)

	// c = top of Qᵀ·b (rank 0); the bottom's norms are the residuals.
	top, restSq := res.Q.ApplyQT(comm, bLocal)

	// Solve R·x = c on rank 0 and replicate.
	xbuf := make([]float64, n*nrhs)
	if comm.Rank() == 0 {
		xm := matrix.FromColMajor(n, nrhs, xbuf)
		matrix.Copy(xm, top)
		blas.Dtrsm(blas.Left, blas.NoTrans, false, 1, res.R, xm)
	}
	xbuf = comm.Bcast(0, xbuf)
	x = matrix.FromColMajor(n, nrhs, xbuf)

	resid = make([]float64, nrhs)
	for j := 0; j < nrhs; j++ {
		resid[j] = math.Sqrt(restSq[j])
	}
	return x, resid
}
