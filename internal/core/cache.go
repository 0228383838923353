package core

import "gridqr/internal/mpi"

// step is one schedule entry seen from one of its two domains.
type step struct {
	peer  int  // comm rank of the other domain's leader
	tag   int  // the merge's schedule index, which doubles as its message tag
	stage int  // the merge's dependency level (stageMerges)
	recv  bool // I absorb the peer's triangle; otherwise I hand mine over
}

// compiledSchedule bundles everything rank-independent that Factorize
// derives from (communicator, config): the domain layout, the reduction
// schedule, and — crucially for scale — each domain's own slice of the
// schedule, so a leader walks O(its merges) instead of scanning the full
// merge list. Built once per world and shared by every rank through
// mpi.World.Shared: at 32k ranks a per-rank layout plus a per-rank
// schedule scan would cost O(ranks²) memory and time, which is exactly
// what the event-driven engine exists to avoid.
type compiledSchedule struct {
	l       *layout
	merges  []CkptMerge // the schedule with its tags and stageMerges labels
	rootDom int
	// deliverStage levels the hop that carries the result to rank 0 when
	// the tree roots elsewhere: one past the last merge stage.
	deliverStage int
	// perDom[d] lists the schedule entries where domain d is the dst or
	// the src, in schedule order. A domain's entries end at its single
	// outgoing merge (it is absorbed there and never reappears), except
	// for the root, which has no outgoing entry.
	perDom [][]step
}

// scheduleKey identifies a compiled schedule in World.Shared: the
// communicator's path — identical on every member and unique per
// communicator — plus every config field the layout or schedule depends
// on.
type scheduleKey struct {
	path      string
	size, dpc int
	tree      Tree
	seed      int64
	overlap   bool
}

// scheduleFor returns the compiled schedule for this (comm, cfg) pair,
// building it on first use.
func scheduleFor(comm *mpi.Comm, cfg Config) *compiledSchedule {
	overlap := cfg.Overlap && cfg.Tree == TreeGrid
	key := scheduleKey{comm.Path(), comm.Size(), cfg.DomainsPerCluster, cfg.Tree, cfg.ShuffleSeed, overlap}
	return comm.Ctx().World().Shared(key, func() any {
		l := buildLayout(comm, cfg.DomainsPerCluster)
		var sched []merge
		var rootDom int
		if overlap {
			sched, rootDom = overlapSchedule(l)
		} else {
			sched, rootDom = buildSchedule(cfg.Tree, l, cfg.ShuffleSeed)
		}
		cs := &compiledSchedule{l: l, merges: ckptMerges(sched, stageMerges(sched)), rootDom: rootDom,
			deliverStage: 1, perDom: make([][]step, len(l.domains))}
		for _, m := range cs.merges {
			cs.deliverStage = max(cs.deliverStage, m.Stage+1)
			dst, src := l.domains[m.Dst].leader(), l.domains[m.Src].leader()
			cs.perDom[m.Dst] = append(cs.perDom[m.Dst], step{peer: src, tag: m.Tag, stage: m.Stage, recv: true})
			cs.perDom[m.Src] = append(cs.perDom[m.Src], step{peer: dst, tag: m.Tag, stage: m.Stage})
		}
		return cs
	}).(*compiledSchedule)
}
