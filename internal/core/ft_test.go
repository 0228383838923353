package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
	"gridqr/internal/telemetry"
)

// ftOut is one rank's outcome of a fault-tolerant run; ranks killed by
// the plan leave the zero value (they never return).
type ftOut struct {
	res *FTResult
	err error
}

// runFT executes FactorizeFT on every rank of a faulty world and collects
// the per-rank outcomes.
func runFT(t *testing.T, g *grid.Grid, plan *mpi.FaultPlan, m, n int, cfg Config, seed int64,
	opts ...mpi.Option) ([]ftOut, *mpi.World, *matrix.Dense) {
	t.Helper()
	global := matrix.Random(m, n, seed)
	outs, w := runFTGlobal(t, g, plan, global, cfg, opts...)
	return outs, w, global
}

// runFTGlobal is runFT over a caller-provided global matrix.
func runFTGlobal(t *testing.T, g *grid.Grid, plan *mpi.FaultPlan, global *matrix.Dense, cfg Config,
	opts ...mpi.Option) ([]ftOut, *mpi.World) {
	t.Helper()
	p := g.Procs()
	m, n := global.Rows, global.Cols
	offsets := scalapack.BlockOffsets(m, p)
	w := mpi.NewWorld(g, append(opts, mpi.WithFaults(plan))...)
	outs := make([]ftOut, p)
	var mu sync.Mutex
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res, err := FactorizeFT(comm, in, cfg)
		mu.Lock()
		outs[ctx.Rank()] = ftOut{res, err}
		mu.Unlock()
	})
	return outs, w
}

// traceEvents counts each rank's compute, wait, send and fault spans —
// the entries a seeded FaultPlan's op indices walk past; phases and
// no-wait receives are left out.
func traceEvents(w *mpi.World) []int {
	tr := w.Trace()
	counts := make([]int, tr.Ranks())
	for r := range counts {
		for _, s := range tr.Track(r) {
			switch s.Kind {
			case telemetry.SpanCompute, telemetry.SpanWait, telemetry.EventSend, telemetry.EventFault:
				counts[r]++
			}
		}
	}
	return counts
}

func checkFTR(t *testing.T, out ftOut, global *matrix.Dense) {
	t.Helper()
	if out.err != nil {
		t.Fatalf("rank 0 error: %v", out.err)
	}
	if out.res == nil || out.res.R == nil {
		t.Fatalf("rank 0 has no R")
	}
	r := out.res.R.Clone()
	lapack.NormalizeRSigns(r, nil)
	if !matrix.Equal(r, refR(global), 1e-10) {
		t.Fatalf("FT R differs from sequential reference")
	}
}

func TestFTFaultFree(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2) // 8 procs, 2 clusters
	outs, _, global := runFT(t, g, nil, 64, 5, Config{}, 1)
	checkFTR(t, outs[0], global)
	if outs[0].res.Stats.Epochs != 1 {
		t.Errorf("fault-free Epochs = %d, want 1", outs[0].res.Stats.Epochs)
	}
	for r, o := range outs {
		if o.err != nil {
			t.Errorf("rank %d error: %v", r, o.err)
		}
	}
}

func TestFTSingleFailureRecovers(t *testing.T) {
	// Rank 5 dies right before its first tree send (ops: 0 leaf charge,
	// 1 buddy send, 2 buddy recv, 3 tree send). The survivors re-form the
	// tree; rank 6 re-contributes 5's replicated leaf.
	g := grid.SmallTestGrid(2, 4, 1) // 8 procs, 2 clusters of 4
	plan := mpi.NewFaultPlan(1).Kill(5, 3)
	outs, w, global := runFT(t, g, plan, 64, 5, Config{}, 3)
	checkFTR(t, outs[0], global)
	st := outs[0].res.Stats
	if st.Epochs != 2 {
		t.Errorf("Epochs = %d, want 2 (one aborted, one clean)", st.Epochs)
	}
	if st.CombinesReused == 0 {
		t.Errorf("rank 0 reused no combines; the re-formed tree should hit the cache")
	}
	if got := st.Dead; len(got) != 1 || got[0] != 5 {
		t.Errorf("Stats.Dead = %v, want [5]", got)
	}
	if dead := w.DeadRanks(); len(dead) != 1 || dead[0] != 5 {
		t.Errorf("DeadRanks = %v, want [5]", dead)
	}
	// Surviving non-coordinator ranks all concluded without error.
	for r, o := range outs {
		if r == 5 {
			continue
		}
		if o.err != nil {
			t.Errorf("rank %d error: %v", r, o.err)
		}
	}
}

func TestFTTooManyFailuresTypedAbort(t *testing.T) {
	g := grid.SmallTestGrid(2, 4, 1)
	// Ranks 1, 3, 5 and 7 die right before their first tree send (op 3,
	// as in the single-failure test): no buddy pair and not the
	// coordinator, so four deaths are reported against the budget of
	// (8−1)/2 = 3.
	plan := mpi.NewFaultPlan(1).Kill(1, 3).Kill(3, 3).Kill(5, 3).Kill(7, 3)
	outs, _, _ := runFT(t, g, plan, 64, 5, Config{}, 4)
	var fe *FTError
	if !errors.As(outs[0].err, &fe) || fe.Reason != FTTooManyFailures {
		t.Fatalf("rank 0 error = %v, want FTError{TooManyFailures}", outs[0].err)
	}
	if len(fe.Dead) < 2 {
		t.Errorf("Dead = %v, want both kills reported", fe.Dead)
	}
}

func TestFTBuddyPairLostIsDataLost(t *testing.T) {
	// Ranks 2 and 3 are each other's recovery path (3 is 2's buddy); both
	// dying before replication makes 2's leaf unrecoverable.
	g := grid.SmallTestGrid(2, 4, 1)
	plan := mpi.NewFaultPlan(1).Kill(2, 0).Kill(3, 0)
	outs, _, _ := runFT(t, g, plan, 64, 5, Config{}, 5)
	var fe *FTError
	if !errors.As(outs[0].err, &fe) || fe.Reason != FTDataLost {
		t.Fatalf("rank 0 error = %v, want FTError{DataLost}", outs[0].err)
	}
	if len(fe.Lost) == 0 {
		t.Errorf("Lost is empty, want the unrecoverable leaves listed")
	}
}

func TestFTCoordinatorLostTypedAbort(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1) // 4 procs
	plan := mpi.NewFaultPlan(1).Kill(0, 2)
	outs, _, _ := runFT(t, g, plan, 40, 4, Config{}, 6)
	for r := 1; r < len(outs); r++ {
		var fe *FTError
		if !errors.As(outs[r].err, &fe) || fe.Reason != FTCoordinatorLost {
			t.Errorf("rank %d error = %v, want FTError{CoordinatorLost}", r, outs[r].err)
		}
	}
}

// TestFTDeterminismRegression is the satellite determinism check: two
// runs with the same FaultPlan seed produce bitwise-identical R factors
// and identical trace event counts, regardless of goroutine scheduling.
func TestFTDeterminismRegression(t *testing.T) {
	g := grid.SmallTestGrid(2, 4, 1)
	run := func() ([]float64, []int) {
		plan := mpi.NewFaultPlan(42).
			Kill(5, 3).
			Drop(mpi.AnyRank, mpi.AnyRank, mpi.AnyTag, 0.2, 1). // one retransmit per sender
			Delay(mpi.AnyRank, mpi.AnyRank, mpi.AnyTag, 0.3, 1e-4, 0)
		outs, w, _ := runFT(t, g, plan, 64, 5, Config{}, 7,
			mpi.Virtual(), mpi.Traced())
		if outs[0].err != nil {
			t.Fatalf("rank 0 error: %v", outs[0].err)
		}
		return append([]float64(nil), outs[0].res.R.Data...), traceEvents(w)
	}
	r1, c1 := run()
	r2, c2 := run()
	if len(r1) != len(r2) {
		t.Fatalf("R sizes differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("R not bitwise identical at %d: %v vs %v", i, r1[i], r2[i])
		}
	}
	for r := range c1 {
		if c1[r] != c2[r] {
			t.Fatalf("rank %d event count differs: %d vs %d", r, c1[r], c2[r])
		}
	}
}

// TestFTPinned holds FT-TSQR to recorded constants, the TestCAQRPinned
// way: fault-free, under TestFTSingleFailureRecovers' plan and under
// TestFTDeterminismRegression's, every bit of R, every rank's recovery
// statistics, every message and byte per link class and every rank's
// trace event count. A refactor of the epoch's tree walk must leave all
// of them where they are — the event counts in particular, because a
// seeded FaultPlan indexes the sends, receives and charges a rank makes.
func TestFTPinned(t *testing.T) {
	g := grid.SmallTestGrid(2, 4, 1)
	for _, tc := range []struct {
		name     string
		plan     *mpi.FaultPlan
		r        uint64
		stats    string // one FTStats per rank; a killed rank leaves the zero value
		perClass [3]mpi.LinkCount
		events   string
	}{
		{name: "fault-free", r: 0xa65c40bdf2ff50d0,
			stats:    "[{1 3 0 []} {1 0 0 []} {1 1 0 []} {1 0 0 []} {1 2 0 []} {1 0 0 []} {1 1 0 []} {1 0 0 []}]",
			perClass: [3]mpi.LinkCount{{}, {Msgs: 15, Bytes: 1672}, {Msgs: 7, Bytes: 504}},
			events:   "[14 5 7 5 7 5 7 5]"},
		{name: "kill", plan: mpi.NewFaultPlan(1).Kill(5, 3), r: 0x73c4718772b21216,
			stats:    "[{2 3 2 [5]} {2 0 0 [5]} {2 1 1 [5]} {2 0 0 [5]} {2 2 0 [5]} {0 0 0 []} {2 2 0 [5]} {2 0 0 [5]}]",
			perClass: [3]mpi.LinkCount{{}, {Msgs: 22, Bytes: 2384}, {Msgs: 11, Bytes: 664}},
			events:   "[23 7 10 7 10 4 10 7]"},
		{name: "kill-drop-delay", plan: mpi.NewFaultPlan(42).
			Kill(5, 3).
			Drop(mpi.AnyRank, mpi.AnyRank, mpi.AnyTag, 0.2, 1).
			Delay(mpi.AnyRank, mpi.AnyRank, mpi.AnyTag, 0.3, 1e-4, 0), r: 0x73c4718772b21216,
			stats:    "[{2 3 2 [5]} {2 0 0 [5]} {2 1 1 [5]} {2 0 0 [5]} {2 2 0 [5]} {0 0 0 []} {2 2 0 [5]} {2 0 0 [5]}]",
			perClass: [3]mpi.LinkCount{{}, {Msgs: 22, Bytes: 2384}, {Msgs: 11, Bytes: 664}},
			events:   "[29 10 13 11 12 6 10 8]"},
	} {
		outs, w, _ := runFT(t, g, tc.plan, 64, 5, Config{}, 7, mpi.Virtual(), mpi.Traced())
		if outs[0].err != nil {
			t.Fatalf("%s: rank 0 error: %v", tc.name, outs[0].err)
		}
		stats := make([]FTStats, len(outs))
		for r, o := range outs {
			if o.res != nil {
				stats[r] = o.res.Stats
			}
		}
		gotR, gotStats, gotEvents := hashBits(outs[0].res.R), fmt.Sprint(stats), fmt.Sprint(traceEvents(w))
		if c := w.Counters(); gotR != tc.r || gotStats != tc.stats || c.PerClass != tc.perClass || gotEvents != tc.events {
			t.Errorf("%s moved:\n got R %#x stats %s\n     %#v events %s\nwant R %#x stats %s\n     %#v events %s",
				tc.name, gotR, gotStats, c.PerClass, gotEvents, tc.r, tc.stats, tc.perClass, tc.events)
		}
	}
}
