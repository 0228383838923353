package core

import (
	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// The reduction walk. Everything above TSQR's leaves is one reduction of
// packed N×N triangles along a tree (Langou, arXiv:1002.4250: an
// MPI_Reduce with a user-defined operator). Factorize, FactorizeStaged,
// ResumeStaged and SnapshotR all run it through reduction.run; they
// differ only in where the steps come from, which tags the messages ride
// and which of the two hooks — the stage gate and the merge callback — is
// set. CAQR runs each panel through it too; the orthogonal factor the
// merges leave behind is treeq.go's.

// tagSpace separates reductions that may share a communicator: merge i
// travels on base+i, the delivery hop to rank 0 on final.
type tagSpace struct{ base, final int }

var (
	factorTags   = tagSpace{base: rTagBase, final: finalRTag}
	snapshotTags = tagSpace{base: snapTagBase, final: snapFinalTag}
)

// reduction is one rank's share of a tree reduction.
type reduction struct {
	comm  *mpi.Comm
	n     int
	tags  tagSpace
	steps []step // my merges in schedule order, my own hand-over last
	// root is the comm rank the tree reduces onto. A topology-oblivious
	// tree can finish away from rank 0 (randomly distributed ranks, paper
	// Fig. 1's remark); one more message, leveled at deliverStage, then
	// carries the result home. Left 0, the result stays wherever the steps
	// reduce it to (CAQR's panels).
	root         int
	deliverStage int
	gate         *PreemptGate // asked before every stage; nil never stops
	// merged, when set, sees each merge right after I absorbed it: CAQR
	// sends the trailing rows through it there and then.
	merged   func(mergeRec)
	absorbed bool // my triangle was handed over before this walk
}

// reduced is what a walk leaves on one rank.
type reduced struct {
	r        *matrix.Dense // my current triangle; nil in cost-only mode
	treeQ                  // the merges I absorbed and the one that absorbed me
	absorbed bool          // r is no longer mine: its absorber carries it on
	stop     int           // the stage the gate stopped me at; 0 = ran to the end
}

// reduction returns domain dom's walk of the compiled schedule.
func (cs *compiledSchedule) reduction(comm *mpi.Comm, n, dom int, tags tagSpace) reduction {
	return reduction{comm: comm, n: n, tags: tags, steps: cs.perDom[dom],
		root: cs.l.domains[cs.rootDom].leader(), deliverStage: cs.deliverStage}
}

// run folds incoming triangles into r in schedule order and hands the
// result over at my one outgoing step, which ends my part of the tree.
func (x reduction) run(r *matrix.Dense) reduced {
	out := reduced{r: r, treeQ: treeQ{sentTo: -1, sentTag: -1}, absorbed: x.absorbed}
	ctx := x.comm.Ctx()
	for _, s := range x.steps {
		if x.gate.shouldStop(s.stage) {
			out.stop = s.stage
			return out
		}
		if !s.recv {
			sendTriu(x.comm, s.peer, out.r, x.n, x.tags.base+s.tag)
			out.sentTo, out.sentTag, out.absorbed = s.peer, s.tag, true
			break
		}
		rec := mergeRec{partner: s.peer, tag: s.tag}
		if other := recvTriu(x.comm, s.peer, x.n, x.tags.base+s.tag); other != nil {
			out.r, rec.v, rec.tau = lapack.StackQR(out.r, other)
		}
		ctx.ChargeKernel("stack_qr", flops.StackQR(x.n), x.n)
		out.log = append(out.log, rec)
		if x.merged != nil {
			x.merged(rec)
		}
	}
	if me := x.comm.Rank(); x.root != 0 && (me == 0 || me == x.root) {
		if x.gate.shouldStop(x.deliverStage) {
			out.stop = x.deliverStage
			return out
		}
		if me == 0 {
			out.r, out.absorbed = recvTriu(x.comm, x.root, x.n, x.tags.final), false
		} else {
			sendTriu(x.comm, 0, out.r, x.n, x.tags.final)
		}
	}
	return out
}

// sendTriu and recvTriu move one packed triangle. They are where the
// reduction forks between data and cost-only worlds: a cost-only world
// ships the byte count alone and receives nil. (blocks.send and
// blocks.recv in treeq.go are the same fork for dense blocks.)
func sendTriu(comm *mpi.Comm, dst int, r *matrix.Dense, n, tag int) {
	if comm.Ctx().HasData() {
		comm.Send(dst, packTriu(r), tag)
	} else {
		comm.SendBytes(dst, triuBytes(n), tag)
	}
}

func recvTriu(comm *mpi.Comm, src, n, tag int) *matrix.Dense {
	buf := comm.Recv(src, tag)
	if !comm.Ctx().HasData() {
		return nil
	}
	return unpackTriu(buf, n)
}
