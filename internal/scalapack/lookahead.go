package scalapack

import (
	"gridqr/internal/blas"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// Lookahead PDGEQRF. The blocked algorithm's trailing-matrix update is
// the one large local computation between communication phases, and in
// the blocking variant it sits entirely on the critical path: every rank
// finishes the full GEMM before entering the next panel's per-column
// allreduces, then idles through 2·nb latency-bound reduction trees.
// The lookahead variant reorders exactly that: after factoring panel k
// it applies the block reflector eagerly only to the columns of panel
// k+1 (so the next panel factorization can start immediately), and
// defers the update of the remaining trailing columns. The deferred GEMM
// is then drained in fixed column chunks inside the wait windows of
// panel k+1's allreduces — the spare-cycle hook of
// mpi.AllreduceOverlap — and any remainder is forced out before the
// next panel's projection (Z = VᵀC) reads the trailing columns.
//
// Communication is untouched: the same allreduces of the same lengths on
// the same binomial trees, so message and byte totals are exactly those
// of PDGEQRF. Flop totals are also identical — the update GEMM is merely
// split by columns. And because a GEMM computes each output column
// independently, the chunked updates produce the same floating-point
// results as the single blocking update, so the factorization agrees
// with PDGEQRF's to the last bit.

// pendingUpdate is a deferred slice of a block-reflector trailing
// update: columns [col, end) of C still owe C -= V·Y[:, ·], where
// Y = Tᵀ·(VᵀC) was fully formed when the update was scheduled.
type pendingUpdate struct {
	vloc   *matrix.Dense // myRows×jb reflectors (nil in cost-only mode)
	y      *matrix.Dense // jb×rest, already multiplied by Tᵀ (nil in cost-only)
	j, jb  int           // panel the update belongs to
	col    int           // next global column to update
	end    int           // exclusive end of the deferred range
	chunk  int           // columns applied per spare-cycle call
	active int           // local active rows, for flop charging
}

// PDGEQRFLookahead is PDGEQRF with compute/communication overlap: the
// trailing update of each panel is deferred and drained inside the next
// panel's allreduce wait windows. Same traffic, same flops, bitwise
// identical factors; strictly less time blocked on the network whenever
// there is an update to hide. Zero nb/nx select the same defaults as
// PDGEQRF.
func PDGEQRFLookahead(comm *mpi.Comm, in Input, nb, nx int) *Factorization {
	return pdgeqrf(comm, in, nb, nx, true)
}

// drainChunk applies one chunk of the pending deferred update; it is the
// spare-cycle hook handed to AllreduceOverlap. No-op when nothing is
// pending (e.g. during the crossover panel's allreduces).
func (p *pd) drainChunk() {
	pu := p.pending
	if pu == nil {
		return
	}
	ctx := p.comm.Ctx()
	c := min(pu.chunk, pu.end-pu.col)
	ctx.Kernel("gemm", float64(2*pu.active*pu.jb*c), p.in.N, func() {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, -1,
			pu.vloc, pu.y.View(0, pu.col-(pu.j+pu.jb), pu.jb, c),
			1, p.in.Local.View(0, pu.col, p.myRows(), c))
	})
	pu.col += c
	if pu.col >= pu.end {
		p.pending = nil
	}
}

// drainAll forces the whole pending update out, at the synchronization
// points where trailing columns are about to be read; a no-op on the
// blocking path, which never defers.
func (p *pd) drainAll() {
	for p.pending != nil {
		p.drainChunk()
	}
}
