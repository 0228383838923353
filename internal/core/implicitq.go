package core

import (
	"gridqr/internal/blas"
	"gridqr/internal/flops"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// ImplicitQ is a handle on the orthogonal factor of a TSQR factorization
// kept in factored (reflector) form: products Qᵀ·B and Q·C are applied
// through the reduction tree without ever forming the M×N Q explicitly —
// half the flops of the explicit route and the natural interface for
// least squares, orthogonal projection and residual computation.
//
// Obtain one from Factorize with Config.KeepFactors (one domain per
// process required). The handle is per-rank: every rank of the
// factorization's communicator must call the Apply methods collectively.
type ImplicitQ struct {
	treeQ   // my merges of the factorization's tree
	n       int
	offsets []int
	leaf    leafState
	root    int // comm rank of the tree root
	applies int // collective counter scoping each apply's tag range
}

// ApplyQT computes Qᵀ·B for a row-distributed B (this rank's block is
// myRows×k). It returns the top N×k coordinate block on world rank 0
// (nil elsewhere) and, replicated everywhere, the per-column squared
// norms of the remaining M−N rows of Qᵀ·B — which are exactly the
// squared least-squares residuals when B is a right-hand side.
func (q *ImplicitQ) ApplyQT(comm *mpi.Comm, bLocal *matrix.Dense) (top *matrix.Dense, restSq []float64) {
	me := comm.Rank()
	myRows := q.offsets[me+1] - q.offsets[me]
	if bLocal == nil || bLocal.Rows != myRows {
		panic("core: ApplyQT block mismatch")
	}
	k := bLocal.Cols
	n := q.n
	q.applies++
	base := applyTagBase + q.applies*applyTagStride

	// Leaf: local Qᵀ through the stored reflectors.
	work := bLocal.Clone()
	q.leaf.q.Apply(blas.Trans, work)
	comm.Ctx().Charge(flops.ORMQR(myRows, k, n), n)
	mine := work.View(0, 0, n, k).Clone()
	rest := make([]float64, k)
	colSq(work.View(n, 0, myRows-n, k), rest)

	// Forward tree replay: same merges, stacked-apply on the tops. A
	// block that was handed over comes back as part of the "rest" of Qᵀ·B.
	q.roundTrip(blocks{comm, n, k, base}, true, mine)
	if q.sentTag >= 0 {
		colSq(mine, rest)
		mine = nil
	}
	// A shuffled tree can root away from rank 0: ship the result home.
	switch {
	case me == q.root && q.root != 0:
		comm.Send(0, mine.Data, base-1)
		mine = nil
	case me == 0 && q.root != 0:
		mine = matrix.FromColMajor(n, k, comm.Recv(q.root, base-1))
	}
	restSq = comm.Allreduce(rest, mpi.OpSum)
	if me == 0 {
		top = mine
	}
	return top, restSq
}

// ApplyQ computes the distributed product Q·C for an N×k block C supplied
// on world rank 0 (nil elsewhere), returning this rank's rows of the M×k
// result — the inverse of ApplyQT's top path (the M−N "rest" coordinates
// are taken as zero, i.e. the result lies in A's column space).
func (q *ImplicitQ) ApplyQ(comm *mpi.Comm, c *matrix.Dense) *matrix.Dense {
	me := comm.Rank()
	myRows := q.offsets[me+1] - q.offsets[me]
	n := q.n
	q.applies++
	base := applyTagBase + q.applies*applyTagStride

	var k int
	if me == 0 {
		if c == nil || c.Rows != n {
			panic("core: ApplyQ needs an N×k block on rank 0")
		}
		k = c.Cols
	}
	// Share k cheaply (one broadcast of a scalar).
	kb := comm.Bcast(0, []float64{float64(k)})
	k = int(kb[0])

	var seed *matrix.Dense
	if me == 0 {
		seed = c.Clone()
	}
	// Seed lives at the tree root (≠ 0 only for shuffled trees).
	switch {
	case me == 0 && q.root != 0:
		comm.Send(q.root, seed.Data, base-1)
		seed = nil
	case me == q.root && q.root != 0:
		seed = matrix.FromColMajor(n, k, comm.Recv(0, base-1))
	}
	// Backward replay down the tree to my leaf's seed.
	seed = q.scatter(blocks{comm, n, k, base}, seed, flops.StackApply(n, k))
	out := q.leaf.q.Expand(seed)
	comm.Ctx().Charge(flops.ORMQR(myRows, k, n), n)
	return out
}

// colSq accumulates per-column squared norms of a block into acc.
func colSq(a *matrix.Dense, acc []float64) {
	for j := 0; j < a.Cols; j++ {
		col := a.Col(j)
		var s float64
		for _, v := range col {
			s += v * v
		}
		acc[j] += s
	}
}
