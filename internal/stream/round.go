package stream

import (
	"time"

	"gridqr/internal/core"
	"gridqr/internal/flops"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// State is one rank's stream state between rounds: just the folder.
// The serving layer keeps the authoritative State outside the ranks and
// dispatches clones into each round, committing the clones back only
// when the whole round succeeds — so a round that dies mid-flight rolls
// back for free (the checkpoint *is* the running R).
type State struct {
	F *Folder
}

// NewState returns a fresh stream state for n columns. data selects the
// data-mode folder; cost-only worlds carry counters only. panelRows 0
// means DefaultPanelRows(n).
func NewState(n, panelRows int, data bool) *State {
	if data {
		return &State{F: NewFolder(n, panelRows)}
	}
	return &State{F: NewCostFolder(n, panelRows)}
}

// Clone deep-copies the state.
func (s *State) Clone() *State { return &State{F: s.F.Clone()} }

// Round describes one dispatch of stream work to a partition: fold
// Count consecutive blocks starting at block From, then (optionally)
// run the snapshot barrier. Rounds are the preemption and fault
// granularity: the gate cuts between blocks, and a failed round is
// retried from the pre-round state.
type Round struct {
	// Seed identifies the stream; blocks are rematerialized from it.
	Seed int64
	// BlockRows is the global rows per block; block b covers global
	// rows [b·BlockRows, (b+1)·BlockRows), strided over the ranks.
	BlockRows int
	// From is the first block index to fold; Count how many (0 is a
	// snapshot-only round).
	From, Count int
	// Snapshot runs the reduction-tree snapshot after the folds.
	Snapshot bool
	// Gate, when non-nil, may stop the round at any block boundary;
	// stages are 1..Count for the folds and Count+1 for the snapshot.
	// All ranks of the round must share the gate object.
	Gate *core.PreemptGate
	// Cfg configures the snapshot's reduction tree (core.Config zero
	// value = the grid-tuned tree, one domain per process).
	Cfg core.Config
}

// RoundResult is one rank's outcome of a round.
type RoundResult struct {
	// R is the global R snapshot (comm rank 0, data mode, snapshot
	// rounds that were not preempted; nil otherwise).
	R *matrix.Dense
	// Folded counts the blocks this round actually folded. The gate's
	// latched stage agreement makes it identical on every rank.
	Folded int
	// Preempted reports the gate cut the round short (the snapshot, if
	// requested, did not run).
	Preempted bool
	// FoldTimes are per-block wall-clock fold latencies, SnapTime the
	// snapshot's — the serving layer's SLO histogram inputs.
	FoldTimes []time.Duration
	SnapTime  time.Duration
}

// RunRound executes a round on this rank. Blocks are folded in order,
// each gated at its boundary; the snapshot barrier runs the reduction
// tree over the running R's without disturbing them. Determinism
// contract: for a fixed stream prefix, the running R after any sequence
// of committed rounds — whatever the round boundaries, preemptions or
// retries — is bitwise identical to folding the prefix in one round,
// because the folder's kernel sequence depends only on total rows.
func RunRound(comm *mpi.Comm, st *State, rd Round) *RoundResult {
	ctx := comm.Ctx()
	me, p := comm.Rank(), comm.Size()
	f := st.F
	n := f.N()
	f.OnFold = func(rows int, merged bool) {
		ctx.ChargeKernel("geqrf", flops.GEQRF(rows, n), n)
		if merged {
			ctx.ChargeKernel("stack_qr", flops.StackQR(n), n)
		}
	}
	defer func() { f.OnFold = nil }()

	res := &RoundResult{}
	for b := 0; b < rd.Count; b++ {
		if rd.Gate.ShouldStop(b + 1) {
			res.Folded = b
			res.Preempted = true
			return res
		}
		start := time.Now()
		lo := (rd.From + b) * rd.BlockRows
		hi := lo + rd.BlockRows
		if ctx.HasData() {
			f.pushShard(rd.Seed, lo, hi, me, p)
		} else {
			f.PushN(ShardCount(lo, hi, me, p))
		}
		res.FoldTimes = append(res.FoldTimes, time.Since(start))
	}
	res.Folded = rd.Count
	if !rd.Snapshot {
		return res
	}
	if rd.Gate.ShouldStop(rd.Count + 1) {
		res.Preempted = true
		return res
	}
	start := time.Now()
	r := f.SnapshotLocal() // nil in cost-only mode; SnapshotR handles both
	res.R = core.SnapshotR(comm, r, n, rd.Cfg)
	res.SnapTime = time.Since(start)
	return res
}
