package core

import (
	"fmt"
	"sync"

	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// Staged TSQR: the same reduction as Factorize, executed stage by stage
// so the run can stop cleanly at any tree-stage boundary. Every merge of
// the schedule is assigned a stage by dependency leveling, and before a
// rank performs any stage-s work it consults a PreemptGate shared by the
// whole partition. When the gate says stop, every merge below the cut
// has run on both sides and no merge at or above it has started — the
// surviving R factors are a complete, tiny checkpoint (the paper's
// observation that TSQR's intermediate R factors are the whole state of
// the reduction). ResumeStaged replays the remaining merges of the
// original schedule on any same-size communicator, reproducing the
// uninterrupted run bit for bit: the fold order, the StackQR inputs and
// the packed triangles are identical.

// PreemptGate coordinates a preemption request across the ranks of one
// staged execution. Ranks reach stage boundaries at different times and
// must agree — without communication — on a single cut stage; the gate
// latches one decision per stage at first query and keeps the decided
// set upward-closed, so both sides of every merge see the same verdict.
type PreemptGate struct {
	mu        sync.Mutex
	requested bool
	decisions map[int]bool
}

// NewPreemptGate returns a gate with no pending request.
func NewPreemptGate() *PreemptGate {
	return &PreemptGate{decisions: make(map[int]bool)}
}

// Request asks the execution to stop at the next tree-stage boundary no
// rank has passed yet. Safe to call at any time, from any goroutine.
func (g *PreemptGate) Request() {
	g.mu.Lock()
	g.requested = true
	g.mu.Unlock()
}

// RequestAt arranges for the run to stop exactly at stage s: stages
// below s proceed even if they have not been queried yet. Tests use it
// to pin the cut deterministically.
func (g *PreemptGate) RequestAt(s int) {
	g.mu.Lock()
	g.requested = true
	for s2 := 1; s2 < s; s2++ {
		if _, ok := g.decisions[s2]; !ok {
			g.decisions[s2] = false
		}
	}
	g.mu.Unlock()
}

// shouldStop latches and returns the decision for one stage. Invariant:
// the set {s : decision(s)} is upward-closed, so a merge is skipped iff
// its stage is at or above the lowest stopped stage. A stop is latched
// only while requested is set, and requested never resets, so every
// stage first queried after a stop stops too; the closure rule below
// keeps a go latched at a higher stage from being contradicted under it.
func (g *PreemptGate) shouldStop(stage int) bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if d, ok := g.decisions[stage]; ok {
		return d
	}
	stop := g.requested
	for s, d := range g.decisions {
		if !d && s > stage {
			stop = false
		}
	}
	g.decisions[stage] = stop
	return stop
}

// CkptMerge is one schedule entry of a checkpointed run: the original
// merge with its dependency stage and message tag, so a resume replays
// the original tree — same fold order, same tags — wherever it lands.
type CkptMerge struct {
	Dst, Src   int
	Stage, Tag int
}

// RankCheckpoint is the fragment one rank contributes when a staged run
// stops: its domain's current R factor (packed upper triangle) plus the
// schedule metadata, carried redundantly so any fragment can seed the
// assembled checkpoint. Ranks with nothing left to contribute (absorbed
// before the cut, or rank 0 merely awaiting the final delivery) report
// preemption without a fragment.
type RankCheckpoint struct {
	M, N, Procs int
	Dom         int
	Stage       int // first stage this rank did not execute
	RootDom     int
	Merges      []CkptMerge
	R           []float64 // packed triangle; nil in cost-only mode
}

// StageCheckpoint is a whole TSQR job frozen at a tree-stage boundary:
// the original schedule and the live domains' R factors. It is complete —
// ResumeStaged needs nothing else — and small: O(d) merges plus at most
// d packed N×N triangles.
type StageCheckpoint struct {
	M, N, Procs int
	Stage       int // first unexecuted stage
	RootDom     int
	Merges      []CkptMerge
	R           map[int][]float64 // live domain -> packed triangle
}

// AssembleCheckpoint combines the per-rank fragments of one preempted
// execution into the portable checkpoint. The global cut is the minimum
// stop stage any fragment observed (ranks whose next merge lay further
// up the tree latch later stages; every merge between is unexecuted).
func AssembleCheckpoint(frags []*RankCheckpoint) *StageCheckpoint {
	var sc *StageCheckpoint
	for _, f := range frags {
		if f == nil {
			continue
		}
		if sc == nil {
			sc = &StageCheckpoint{
				M: f.M, N: f.N, Procs: f.Procs, Stage: f.Stage,
				RootDom: f.RootDom, Merges: f.Merges,
				R: make(map[int][]float64),
			}
		}
		if f.Stage < sc.Stage {
			sc.Stage = f.Stage
		}
		if f.R != nil {
			sc.R[f.Dom] = f.R
		}
	}
	return sc
}

// StagedResult is one rank's outcome of a staged (or resumed) execution.
type StagedResult struct {
	// R is the global R factor (comm rank 0, data mode, completed runs).
	R *matrix.Dense
	// Preempted reports that this rank stopped at a stage boundary.
	// Ranks absorbed before the cut finished their part and report false;
	// the caller detects preemption as "any member preempted".
	Preempted bool
	// Ckpt is this rank's checkpoint fragment (live domains only).
	Ckpt *RankCheckpoint
	// Domains is the domain count of the reduction.
	Domains int
}

// stageMerges levels the schedule: each merge runs one stage after the
// last stage either participant touched. Walking the global schedule in
// order keeps per-destination fold order intact (stages along one
// domain's merges are strictly increasing), each domain does at most one
// merge per stage, and the leveling works for any tree shape.
func stageMerges(sched []merge) []int {
	domains := 0
	for _, m := range sched {
		domains = max(domains, m.dst+1, m.src+1)
	}
	last := make([]int, domains)
	stages := make([]int, len(sched))
	for i, m := range sched {
		s := max(last[m.dst], last[m.src]) + 1
		stages[i] = s
		last[m.dst] = s
		last[m.src] = s
	}
	return stages
}

// checkStagedConfig rejects configurations the staged executor does not
// support: it checkpoints one R per rank, so every domain must be a
// single process, and the backward Q pass and the FT protocol have no
// stage-boundary freeze points. The overlap schedule is refused because
// no caller stages it, not because it could not be leveled.
func checkStagedConfig(comm *mpi.Comm, cfg Config, l *layout) {
	if cfg.WantQ || cfg.KeepFactors {
		panic("core: staged TSQR supports R-only runs")
	}
	if cfg.Overlap {
		panic("core: staged TSQR does not support overlap pipelining")
	}
	if cfg.FT.Enabled {
		panic("core: staged TSQR does not compose with FT-TSQR")
	}
	if len(l.domains) != comm.Size() {
		panic(fmt.Sprintf("core: staged TSQR needs one domain per process (got %d domains, %d procs)",
			len(l.domains), comm.Size()))
	}
}

// FactorizeStaged runs R-only TSQR with stage-boundary preemption. With
// a nil gate (or one never requested) it performs exactly the merges, in
// exactly the order, with exactly the messages of Factorize, and returns
// the identical R. When the gate stops it at a boundary, the returned
// fragments assemble (AssembleCheckpoint) into a StageCheckpoint that
// ResumeStaged completes on any same-size communicator.
func FactorizeStaged(comm *mpi.Comm, in Input, cfg Config, gate *PreemptGate) *StagedResult {
	in.validate(comm)
	ctx := comm.Ctx()
	cs := scheduleFor(comm, cfg)
	l := cs.l
	checkStagedConfig(comm, cfg, l)
	dom := l.mine(comm.Rank())
	in.checkTall(dom)

	leafDone := ctx.Phase("tsqr.panel")
	leaf := factorLeaf(comm, in, dom, cfg)
	leafDone()

	res := &StagedResult{Domains: len(l.domains)}
	combineDone := ctx.Phase("tsqr.combine")
	defer combineDone()

	red := reduction[*matrix.Dense]{comm: comm, route: cs.route(dom.id), tags: factorTags,
		op: &triangles{comm: comm, n: in.N}, gate: gate}
	res.settle(comm, red.run(leaf.r), RankCheckpoint{
		M: in.M, N: in.N, Procs: comm.Size(), Dom: dom.id, RootDom: cs.rootDom, Merges: cs.merges,
	})
	return res
}

// ResumeStaged completes a checkpointed run on comm, which must have the
// checkpoint's process count. Domain ids map to comm ranks directly (the
// staged executor pins one domain per process), and the remaining merges
// of the original schedule are replayed verbatim — the destination
// partition's own topology is deliberately ignored, which is what makes
// the result bitwise identical wherever the job resumes. The gate may
// stop the resumed run again at a later boundary.
func ResumeStaged(comm *mpi.Comm, sc *StageCheckpoint, gate *PreemptGate) *StagedResult {
	ctx := comm.Ctx()
	if comm.Size() != sc.Procs {
		panic(fmt.Sprintf("core: resume on %d procs, checkpoint has %d", comm.Size(), sc.Procs))
	}
	me := comm.Rank()
	res := &StagedResult{Domains: sc.Procs}
	combineDone := ctx.Phase("tsqr.combine")
	defer combineDone()

	// My remaining steps of the original schedule: the ones below the cut
	// ran (stages rise along one domain's steps, so they are a prefix),
	// and a domain is live unless one of those handed it over. (In data
	// mode the fragment map says the same thing; deriving liveness from
	// the schedule keeps cost-only checkpoints — which carry no triangles —
	// working identically.)
	red := reduction[*matrix.Dense]{comm: comm, tags: factorTags, op: &triangles{comm: comm, n: sc.N}, gate: gate,
		route: route{steps: stepsFor(sc.Merges, me), root: sc.RootDom, deliverStage: 1}}
	for _, cm := range sc.Merges {
		red.deliverStage = max(red.deliverStage, cm.Stage+1)
	}
	for len(red.steps) > 0 && red.steps[0].stage < sc.Stage {
		red.absorbed = red.absorbed || !red.steps[0].recv
		red.steps = red.steps[1:]
	}
	var r *matrix.Dense
	if !red.absorbed && ctx.HasData() {
		r = unpackTriu(sc.R[me], sc.N)
	}
	res.settle(comm, red.run(r), RankCheckpoint{
		M: sc.M, N: sc.N, Procs: sc.Procs, Dom: me, RootDom: sc.RootDom, Merges: sc.Merges,
	})
	return res
}

// settle records a walk's outcome as this rank's staged result: the
// global R on rank 0 of a completed run, or preemption with the rank's
// fragment. A stopped rank whose triangle was already handed over (rank
// 0 merely awaiting the delivery hop) holds no live R and reports
// preemption without a fragment.
func (res *StagedResult) settle(comm *mpi.Comm, out reduced[*matrix.Dense], frag RankCheckpoint) {
	switch {
	case out.stop == 0:
		if comm.Rank() == 0 {
			res.R = out.state
		}
	case out.absorbed:
		res.Preempted = true
	default:
		res.Preempted = true
		frag.Stage = out.stop
		frag.R = packTriu(out.state)
		res.Ckpt = &frag
	}
}

// ckptMerges renders a schedule with its tags and stage labels; nil
// stages leave every merge at stage 0, which no gate ever stops.
func ckptMerges(sched []merge, stages []int) []CkptMerge {
	out := make([]CkptMerge, len(sched))
	for tag, m := range sched {
		out[tag] = CkptMerge{Dst: m.dst, Src: m.src, Tag: tag}
		if stages != nil {
			out[tag].Stage = stages[tag]
		}
	}
	return out
}
