package core

import (
	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// The tree's orthogonal factor. A reduction leaves on every rank the
// merges it absorbed and the one merge that absorbed it; the product of
// those stacked-triangle Q's, taken along the tree, is the Q that sits
// between the leaves' own reflectors and R (paper Property 1, Table II).
// It only ever moves in two ways, both over n×k blocks riding one tag per
// merge: scatter pushes a seed from the root down to the leaves (the
// explicit Q of buildQ, ImplicitQ.ApplyQ), roundTrip couples the ranks'
// top blocks pairwise, contributor to absorber and back (ImplicitQ.ApplyQT,
// CAQR's trailing update and its explicit Q). Data and cost-only worlds
// fork in blocks.send/recv: a cost-only block is nil and is never
// multiplied.

// mergeRec remembers one merge a rank absorbed: the implicit Q of the
// stacked-triangles QR and who contributed the absorbed R.
type mergeRec struct {
	v       *matrix.Dense
	tau     []float64
	partner int
	tag     int
}

// treeQ is one rank's share of the tree's orthogonal factor, as a walk
// with the triangles operator leaves it.
type treeQ struct {
	log             []mergeRec // the merges I absorbed, in schedule order
	sentTo, sentTag int        // the merge that absorbed me, or -1
}

// blocks is the traffic of one pass over the tree: dense n×k blocks,
// merge i's on tag base+i.
type blocks struct {
	comm       *mpi.Comm
	n, k, base int
}

// send and recv move one block to or from the other side of a merge. Like
// triangles.send and recv they are where data and cost-only worlds fork: a
// cost-only world ships the byte count alone and receives nil.
func (b blocks) send(peer, tag int, m *matrix.Dense) {
	if !b.comm.Ctx().HasData() {
		b.comm.SendBytes(peer, 8*float64(b.n*b.k), b.base+tag)
		return
	}
	if len(m.Data) != b.n*b.k { // a view: Send neither copies nor compacts
		m = m.Clone()
	}
	b.comm.Send(peer, m.Data, b.base+tag)
}

func (b blocks) recv(peer, tag int) *matrix.Dense {
	buf := b.comm.Recv(peer, b.base+tag)
	if !b.comm.Ctx().HasData() {
		return nil
	}
	return matrix.FromColMajor(b.n, b.k, buf)
}

// scatter runs the reduction backwards: my seed comes from the rank that
// absorbed me (the tree root passes its own), and each merge I absorbed,
// newest first, splits it into the top I keep and the bottom its
// contributor continues from, charged splitFlops. It returns my leaf's
// seed.
func (q treeQ) scatter(b blocks, seed *matrix.Dense, splitFlops float64) *matrix.Dense {
	if q.sentTag >= 0 {
		seed = b.recv(q.sentTo, q.sentTag)
	}
	for i := len(q.log) - 1; i >= 0; i-- {
		rec := q.log[i]
		var bottom *matrix.Dense
		if seed != nil {
			bottom = matrix.New(b.n, b.k)
			lapack.ApplyStackQ(rec.v, rec.tau, false, seed, bottom)
		}
		b.send(rec.partner, rec.tag, bottom)
		b.comm.Ctx().ChargeKernel("stack_qr_apply", splitFlops, b.n)
	}
	return seed
}

// roundTrip applies the tree's Qᵀ (trans) or Q in place to the n×k top
// blocks the ranks hold: Qᵀ replays my merges in order and then hands my
// block to my absorber, Q undoes exactly that from the other end. The
// rows below the tops are the leaves' business.
func (q treeQ) roundTrip(b blocks, trans bool, top *matrix.Dense) {
	if trans {
		for _, rec := range q.log {
			b.absorb(rec, true, top)
		}
	}
	if q.sentTag >= 0 {
		b.contribute(q.sentTo, q.sentTag, top)
	}
	if !trans {
		for i := len(q.log) - 1; i >= 0; i-- {
			b.absorb(q.log[i], false, top)
		}
	}
}

// absorb is the absorber's half of one merge's round trip: the
// contributor's block arrives, the merge's Q or Qᵀ mixes it with mine and
// it goes back.
func (b blocks) absorb(rec mergeRec, trans bool, top *matrix.Dense) {
	theirs := b.recv(rec.partner, rec.tag)
	if theirs != nil {
		lapack.ApplyStackQ(rec.v, rec.tau, trans, top, theirs)
	}
	b.send(rec.partner, rec.tag, theirs)
	b.comm.Ctx().Charge(flops.StackApply(b.n, b.k), b.n)
}

// contribute is the other half: my block travels to the rank that
// absorbed me and what comes back replaces it.
func (b blocks) contribute(to, tag int, top *matrix.Dense) {
	b.send(to, tag, top)
	if back := b.recv(to, tag); back != nil {
		matrix.Copy(top, back)
	}
}
