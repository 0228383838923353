package core

import "gridqr/internal/mpi"

// The reduction walk. Everything above the leaves of TSQR, TSLU and
// FT-TSQR is one reduction along a tree — Langou, arXiv:1002.4250: an
// MPI_Reduce with a user-defined operator; Demmel et al.,
// arXiv:0806.2159: TSLU's tournament is that reduction with another
// operator. reduction.run is the walk and takes the operator as a
// parameter. The walk owns the order of the steps, the stage gate, the
// one hand-over that ends a rank's part and the delivery hop; the
// operator owns the state — what it is, how it crosses a link, how two
// combine and what that charges — and the walk never looks inside it.
// The operators live beside their algorithms: triangles (tsqr.go; CAQR's
// panels, staged TSQR and snapshots use it too), tournament (tslu.go)
// and ftState (ft.go). The orthogonal factor TSQR's merges leave behind
// is treeq.go's.

// operator is what a reduction reduces with.
type operator[S any] interface {
	// send hands a state to peer — its absorber, or rank 0 on the
	// delivery hop — and recv is the other end of that message.
	send(peer, tag int, s S)
	recv(peer, tag int) S
	// absorb folds what recv returned at step st into mine and charges
	// the merge. It consumes both operands: either may be overwritten or
	// kept inside the result. The walk only ever passes what recv
	// returned and the state it was started with or got back from absorb,
	// so a caller that needs its starting state afterwards hands run a
	// copy.
	absorb(mine, theirs S, st step) S
}

// tagSpace separates reductions that may share a communicator: merge i
// travels on base+i, the delivery hop to rank 0 on final.
type tagSpace struct{ base, final int }

// The tag table: every point-to-point tag internal/core uses, the bound
// each range assumes, and which ranges can be in flight on one
// communicator together (a fast rank may enter the next call while a slow
// one is still in the last). TestTagSpacesDisjoint checks those sets;
// collectives ride mpi's own tags.
const (
	// TSLU's tournament, merge i on +i; alone.
	tsluTagBase = 1 << 19

	// Factorize, FactorizeStaged, ResumeStaged: merge i on rTagBase+i,
	// its Q-construction counterpart on qTagBase+i, the result's hop to
	// rank 0 on finalRTag. SnapshotR: the same walk on snapTagBase and
	// snapFinalTag. All in flight together and with ImplicitQ's applies;
	// each range holds maxTreeMerges.
	rTagBase      = 1 << 21
	snapTagBase   = 3 << 20
	qTagBase      = 1 << 22
	snapFinalTag  = 1<<23 - 2
	finalRTag     = 1<<23 - 1
	maxTreeMerges = 1 << 20

	// CAQR, panel i: R merges from rTagBase+i·caqrTagStride, the trailing
	// tops half a stride up, the explicit-Q pass the same way from
	// caqrQTagBase. In flight with each other only (the panels walk across
	// the Factorize ranges). Half a stride bounds one panel's merges, so
	// P; the distance to the Q pass bounds the panels.
	caqrTagStride = 1 << 14
	caqrQTagBase  = 1 << 25
	caqrMaxProcs  = caqrTagStride / 2
	caqrMaxPanels = (caqrQTagBase - rTagBase) / caqrTagStride

	// ImplicitQ, apply k: merge i on applyTagBase+k·applyTagStride+i, the
	// hop between rank 0 and a root elsewhere one below that — apply k−1's
	// last tag, so the stride bounds P. Consecutive applies overlap.
	applyTagBase   = 1 << 24
	applyTagStride = 1 << 12

	// FT-TSQR: buddy replication of the leaf R, the coordinator's control
	// on ftCtrlBase+epoch, tree data on ftDataBase+epoch·ftMergeSpan+merge;
	// all in flight together. ftMergeSpan bounds an epoch's merges and the
	// epochs, so P both ways.
	ftLeafCopyTag = 1 << 26
	ftCtrlBase    = 1 << 27
	ftDataBase    = 1 << 28
	ftMergeSpan   = 4096
)

var factorTags = tagSpace{base: rTagBase, final: finalRTag}

// route is one rank's way through a reduction tree.
type route struct {
	steps []step // my merges in schedule order, my own hand-over last
	// root is the comm rank the tree reduces onto. A topology-oblivious
	// tree can finish away from rank 0 (randomly distributed ranks, paper
	// Fig. 1's remark); one more message, leveled at deliverStage, then
	// carries the result home. Left 0, the result stays wherever the steps
	// reduce it to (CAQR's panels, FT-TSQR's epochs).
	root         int
	deliverStage int
}

// route returns domain dom's way through the compiled schedule.
func (cs *compiledSchedule) route(dom int) route {
	return route{steps: cs.perDom[dom], root: cs.l.domains[cs.rootDom].leader(), deliverStage: cs.deliverStage}
}

// stepsFor picks rank me's steps out of a whole schedule whose domains
// are ranks — the trees built per call (a CAQR panel's active ranks,
// an FT epoch's survivors) or carried by a checkpoint, where a compiled
// per-domain slice does not exist.
func stepsFor(merges []CkptMerge, me int) []step {
	var steps []step
	for _, m := range merges {
		if m.Dst == me {
			steps = append(steps, step{peer: m.Src, tag: m.Tag, stage: m.Stage, recv: true})
		} else if m.Src == me {
			steps = append(steps, step{peer: m.Dst, tag: m.Tag, stage: m.Stage})
		}
	}
	return steps
}

// reduction is one rank's share of a tree reduction over states S.
type reduction[S any] struct {
	comm *mpi.Comm
	route
	tags tagSpace
	op   operator[S]
	gate *PreemptGate // asked before every stage; nil never stops
	// absorbed: my state was handed over before this walk (a resumed
	// checkpoint).
	absorbed bool
}

// reduced is what a walk leaves on one rank.
type reduced[S any] struct {
	state           S    // my current state
	sentTo, sentTag int  // the merge that absorbed me, or -1
	absorbed        bool // state is no longer mine: its absorber carries it on
	stop            int  // the stage the gate stopped me at; 0 = ran to the end
}

// run folds incoming states into s in schedule order and hands the
// result over at my one outgoing step, which ends my part of the tree.
func (x reduction[S]) run(s S) reduced[S] {
	out := reduced[S]{state: s, sentTo: -1, sentTag: -1, absorbed: x.absorbed}
	for _, st := range x.steps {
		if x.gate.shouldStop(st.stage) {
			out.stop = st.stage
			return out
		}
		if !st.recv {
			x.op.send(st.peer, x.tags.base+st.tag, out.state)
			out.sentTo, out.sentTag, out.absorbed = st.peer, st.tag, true
			break
		}
		out.state = x.op.absorb(out.state, x.op.recv(st.peer, x.tags.base+st.tag), st)
	}
	if me := x.comm.Rank(); x.root != 0 && (me == 0 || me == x.root) {
		if x.gate.shouldStop(x.deliverStage) {
			out.stop = x.deliverStage
			return out
		}
		if me == 0 {
			out.state, out.absorbed = x.op.recv(x.root, x.tags.final), false
		} else {
			x.op.send(0, x.tags.final, out.state)
		}
	}
	return out
}
