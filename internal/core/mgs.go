package core

import (
	"math"

	"gridqr/internal/blas"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// MGS is distributed modified Gram-Schmidt: numerically far better than
// classical Gram-Schmidt, but every projection is a separate allreduce —
// N(N+1)/2 reductions for N columns, the "too many communications" the
// paper's Section II-E says block eigensolver packages avoid at the price
// of stability. Together with CholeskyQR (1 reduction, unstable) and TSQR
// (1 tuned reduction, unconditionally stable) it completes the
// communication/stability design space this library demonstrates:
//
//	                 reductions       loss of orthogonality
//	CGS              N                ∝ cond²  (examples/orthobasis)
//	CholeskyQR       1                ∝ cond², fails past 1/√ε
//	MGS              N(N+1)/2 + N     ∝ cond
//	TSQR             1 (tree)         ∝ ε  — the paper's point
//
// MGSResult carries the distributed Q and the replicated R factor.
type MGSResult struct {
	// QLocal is this rank's row block of Q (nil in cost-only mode).
	QLocal *matrix.Dense
	// R is the N×N triangular factor, replicated on every rank (nil in
	// cost-only mode).
	R *matrix.Dense
}

// MGS orthogonalizes the distributed matrix column by column with
// modified Gram-Schmidt. Input.Local is not modified.
func MGS(comm *mpi.Comm, in Input) *MGSResult {
	in.validate(comm)
	ctx := comm.Ctx()
	n := in.N
	myRows := in.Offsets[comm.Rank()+1] - in.Offsets[comm.Rank()]
	var q *matrix.Dense
	var r *matrix.Dense
	if ctx.HasData() {
		q = in.Local.Clone()
		r = matrix.New(n, n)
	}
	for j := 0; j < n; j++ {
		// Sequential projections against every previous column: one
		// allreduce each (this is what MGS costs in messages).
		for k := 0; k < j; k++ {
			d := make([]float64, 1)
			if ctx.HasData() {
				d[0] = blas.Ddot(q.Col(k), q.Col(j))
			}
			d = comm.Allreduce(d, mpi.OpSum)
			ctx.Kernel("compute", float64(4*myRows), n, func() {
				r.Set(k, j, d[0])
				blas.Daxpy(-d[0], q.Col(k), q.Col(j))
			})
		}
		// Normalize: one more allreduce for the norm.
		ss := make([]float64, 1)
		if ctx.HasData() {
			cj := q.Col(j)
			ss[0] = blas.Ddot(cj, cj)
		}
		ss = comm.Allreduce(ss, mpi.OpSum)
		ctx.Kernel("compute", float64(3*myRows), n, func() {
			nrm := math.Sqrt(ss[0])
			r.Set(j, j, nrm)
			if nrm > 0 {
				blas.Dscal(1/nrm, q.Col(j))
			}
		})
	}
	return &MGSResult{QLocal: q, R: r}
}
