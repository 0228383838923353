package core

import (
	"fmt"

	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// ShouldStop exposes the gate's stage-latching decision to staged
// executors outside this package (internal/stream gates its block folds
// on the same upward-closed agreement the staged TSQR uses). The
// contract is shouldStop's: one latched verdict per stage, the stopped
// set upward-closed, so every rank querying a stage sees the same
// answer without communication.
func (g *PreemptGate) ShouldStop(stage int) bool {
	return g.shouldStop(stage)
}

// SnapshotR runs the TSQR reduction tree over per-rank n×n running R
// factors and returns the global R on comm rank 0 (nil elsewhere, and
// nil everywhere in cost-only mode). It is the read side of incremental
// TSQR: the inputs are not mutated (a rank that absorbs merges into a
// copy of its R), so each rank's running R keeps absorbing blocks after
// the snapshot as if it never happened.
//
// The walk is Factorize's (reduction.run) — same schedule, same fold
// order, same packed triangles — on a dedicated tag namespace, so
// a snapshot of per-rank R's equals the R that Factorize would have
// produced from the same leaves, bit for bit, and costs exactly the
// perfmodel's TSQRExactTotals(n, p) messages (the grid tree roots at
// rank 0; topology-oblivious trees add the usual final delivery hop).
//
// Requires one domain per process, like the staged executor: the
// running state is one R per rank.
func SnapshotR(comm *mpi.Comm, r *matrix.Dense, n int, cfg Config) *matrix.Dense {
	ctx := comm.Ctx()
	if n <= 0 {
		panic(fmt.Sprintf("core: snapshot needs positive n, got %d", n))
	}
	cs := scheduleFor(comm, cfg)
	if len(cs.l.domains) != comm.Size() {
		panic(fmt.Sprintf("core: snapshot needs one domain per process (got %d domains, %d procs)",
			len(cs.l.domains), comm.Size()))
	}
	if !ctx.HasData() {
		r = nil // cost-only: the walk moves byte counts and charges only
	} else if r == nil || r.Rows != n || r.Cols != n {
		panic("core: snapshot needs an n×n running R in data mode")
	}
	me := comm.Rank()
	// One domain per process: domain id = rank.
	rt := cs.route(me)
	if r != nil && len(rt.steps) > 0 && rt.steps[0].recv {
		r = r.Clone() // the merges are in place; a rank that only sends packs
	}
	out := reduction[*matrix.Dense]{comm: comm, route: rt, op: &triangles{comm: comm, n: n},
		tags: tagSpace{base: snapTagBase, final: snapFinalTag}}.run(r)
	if me != 0 {
		return nil
	}
	return out.state
}
