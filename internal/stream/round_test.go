package stream

import (
	"sync"
	"testing"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/perfmodel"
)

// runPlan executes a sequence of rounds on a fresh data-mode world,
// each rank carrying its state across rounds, and returns the last
// snapshot's global R plus the world (for counters).
func runPlan(t *testing.T, g *grid.Grid, n int, rounds []Round, opts ...mpi.Option) (*matrix.Dense, *mpi.World) {
	t.Helper()
	w := mpi.NewWorld(g, opts...)
	var mu sync.Mutex
	var r *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		f := NewCostFolder(n, 0)
		if ctx.HasData() {
			f = NewFolder(n, 0)
		}
		for _, rd := range rounds {
			if res := RunRound(comm, f, rd); res.R != nil {
				mu.Lock()
				r = res.R
				mu.Unlock()
			}
		}
	})
	return r, w
}

// TestRoundIncrementalEqualsOneShot is the distributed bitwise
// contract: folding the stream block by block (with snapshots along the
// way) then snapshotting equals one-shot TSQR of the concatenation —
// the same rows pushed in a single round — bit for bit, for any round
// split and any block size decomposition of the same row total.
func TestRoundIncrementalEqualsOneShot(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2) // 8 ranks, 2 clusters
	const n, seed, totalRows = 6, 5, 192

	oneShot, _ := runPlan(t, g, n, []Round{
		{Seed: seed, BlockRows: totalRows, From: 0, Count: 1, Snapshot: true},
	})
	if oneShot == nil {
		t.Fatal("one-shot produced no R")
	}

	// Same rows, different block sizes × round splits × interleaved
	// snapshots.
	for _, tc := range []struct {
		name      string
		blockRows int
		rounds    []Round
	}{
		{"12x16-one-round", 16, []Round{{Count: 12, Snapshot: true}}},
		{"24x8-three-rounds", 8, []Round{
			{From: 0, Count: 7}, {From: 7, Count: 1, Snapshot: true}, {From: 8, Count: 16, Snapshot: true},
		}},
		{"192x1-with-snapshots", 1, []Round{
			{From: 0, Count: 50, Snapshot: true}, {From: 50, Count: 100}, {From: 150, Count: 42, Snapshot: true},
		}},
		{"6x32-snapshot-only-round", 32, []Round{
			{From: 0, Count: 6}, {From: 6, Count: 0, Snapshot: true},
		}},
	} {
		rounds := make([]Round, len(tc.rounds))
		for i, rd := range tc.rounds {
			rd.Seed, rd.BlockRows = seed, tc.blockRows
			rounds[i] = rd
		}
		got, _ := runPlan(t, g, n, rounds)
		if got == nil {
			t.Fatalf("%s: no R", tc.name)
		}
		if !bitEqual(got, oneShot) {
			t.Fatalf("%s: incremental R differs from one-shot", tc.name)
		}
	}

	// Mathematical validation: QR is row-permutation invariant up to
	// signs, so the strided-sharded stream must match the sequential QR
	// of the concatenation after normalization.
	ref := core.FactorizeLocal(GlobalRows(seed, n, 0, totalRows), 0)
	lapack.NormalizeRSigns(ref, nil)
	norm := oneShot.Clone()
	lapack.NormalizeRSigns(norm, nil)
	if !matrix.Equal(norm, ref, 1e-10) {
		t.Fatal("stream R differs from sequential QR of the concatenation")
	}
}

// TestRoundPreemptResume: a gate cut at a block boundary stops every
// rank at the same block, and finishing the remaining blocks in a later
// round reproduces the uninterrupted R bitwise.
func TestRoundPreemptResume(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1) // 4 ranks
	const n, seed, blockRows, blocks = 5, 9, 8, 10

	want, _ := runPlan(t, g, n, []Round{
		{Seed: seed, BlockRows: blockRows, Count: blocks, Snapshot: true},
	})

	gate := core.NewPreemptGate()
	gate.RequestAt(4) // stop before block index 3
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var got *matrix.Dense
	foldedBy := make(map[int]int)
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		f := NewFolder(n, 0)
		res := RunRound(comm, f, Round{
			Seed: seed, BlockRows: blockRows, Count: blocks, Snapshot: true, Gate: gate,
		})
		mu.Lock()
		foldedBy[ctx.Rank()] = res.Folded
		mu.Unlock()
		if !res.Preempted || res.R != nil {
			t.Errorf("rank %d: preempted=%v R=%v", ctx.Rank(), res.Preempted, res.R)
		}
		// Resume: fold the rest, then snapshot.
		res2 := RunRound(comm, f, Round{
			Seed: seed, BlockRows: blockRows, From: res.Folded, Count: blocks - res.Folded, Snapshot: true,
		})
		if res2.R != nil {
			mu.Lock()
			got = res2.R
			mu.Unlock()
		}
	})
	for rank, folded := range foldedBy {
		if folded != 3 {
			t.Fatalf("rank %d folded %d blocks, want 3 (latched agreement)", rank, folded)
		}
	}
	if got == nil || !bitEqual(got, want) {
		t.Fatal("preempt+resume R differs from uninterrupted run")
	}
}

// TestRoundFaultRollback: a round that dies mid-flight (a rank killed
// by the fault plan during the snapshot barrier) is rolled back by
// discarding the dispatched clones; retrying the round from the
// committed states on a fresh same-size world lands bitwise on the
// uninterrupted R. This is exactly the serving layer's retry story —
// the committed R is the checkpoint.
func TestRoundFaultRollback(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1) // 4 ranks
	const n, seed, blockRows = 4, 13, 6

	want, _ := runPlan(t, g, n, []Round{
		{Seed: seed, BlockRows: blockRows, Count: 3},
		{Seed: seed, BlockRows: blockRows, From: 3, Count: 2, Snapshot: true},
	})

	// Committed per-rank folders after the first (successful) round.
	folders := make([]*Folder, g.Procs())
	w1 := mpi.NewWorld(g)
	w1.Run(func(ctx *mpi.Ctx) {
		f := NewFolder(n, 0)
		RunRound(mpi.WorldComm(ctx), f, Round{Seed: seed, BlockRows: blockRows, Count: 3})
		folders[ctx.Rank()] = f
	})

	// Second round dispatched on clones; rank 2 dies, the snapshot
	// barrier collapses, and the clones are discarded.
	plan := mpi.NewFaultPlan(7).Kill(2, 0)
	w2 := mpi.NewWorld(g, mpi.WithFaults(plan))
	var failures sync.Map
	w2.Run(func(ctx *mpi.Ctx) {
		defer func() {
			if p := recover(); p != nil {
				if mpi.IsKillPanic(p) {
					panic(p) // let the world record the death
				}
				failures.Store(ctx.Rank(), p)
			}
		}()
		clone := folders[ctx.Rank()].Clone()
		RunRound(mpi.WorldComm(ctx), clone, Round{
			Seed: seed, BlockRows: blockRows, From: 3, Count: 2, Snapshot: true,
		})
	})
	failed := false
	failures.Range(func(_, _ any) bool { failed = true; return false })
	if !failed && !w2.RankDead(2) {
		t.Fatal("fault plan injected no failure")
	}

	// Retry the round from the committed folders on a fresh world.
	var mu sync.Mutex
	var got *matrix.Dense
	w3 := mpi.NewWorld(g)
	w3.Run(func(ctx *mpi.Ctx) {
		clone := folders[ctx.Rank()].Clone()
		res := RunRound(mpi.WorldComm(ctx), clone, Round{
			Seed: seed, BlockRows: blockRows, From: 3, Count: 2, Snapshot: true,
		})
		if res.R != nil {
			mu.Lock()
			got = res.R
			mu.Unlock()
		}
	})
	if got == nil || !bitEqual(got, want) {
		t.Fatal("post-fault retry R differs from uninterrupted run")
	}
}

// TestRoundPanelOwnership: a round's clone takes the committed folder's
// panel buffer over, so a steady stream keeps reusing one; a failed
// round's straggler keeps writing the panel it owns while the retry,
// cloned from the same committed state, grows its own — and the retry
// and the committed state still fold their rows bit for bit.
func TestRoundPanelOwnership(t *testing.T) {
	const n, panel, p, seed, blockRows = 6, 16, 2, 11, 20 // a block is 10 rows of rank 0
	ingest := func(f *Folder, from, count int) {
		f.pushShard(seed, from*blockRows, (from+count)*blockRows, 0, p)
	}
	want := func(blocks int) *Folder {
		ref := NewFolder(n, panel)
		ref.Push(ShardRows(seed, n, 0, blocks*blockRows, 0, p))
		return ref
	}
	committed := NewFolder(n, panel)
	ingest(committed, 0, 1)
	buf := &committed.buf.Data[0]
	for b := 1; b < 6; b++ { // every round starts mid-panel
		c := committed.Clone()
		if &c.buf.Data[0] != buf {
			t.Fatalf("round %d: the clone did not take the committed panel over", b)
		}
		if &committed.buf.Data[0] == buf {
			t.Fatalf("round %d: the committed folder still shares the clone's panel", b)
		}
		ingest(c, b, 1)
		committed = c
	}

	straggler := committed.Clone() // a round that will fail
	retry := committed.Clone()
	ingest(retry, 6, 1)
	ingest(straggler, 6, 3) // still running after the retry started
	ingest(retry, 7, 1)
	if !sameFold(retry, want(8)) {
		t.Fatal("the retry's fold differs from the uninterrupted one")
	}
	if !sameFold(committed, want(6)) {
		t.Fatal("the committed state moved under its clones")
	}
}

// TestRoundCrossEngine: the cost-only stream is observationally
// identical on the event engine and the goroutine engine — message and
// byte counters and the virtual clock agree exactly — and each snapshot
// costs exactly the perfmodel's predicted messages.
func TestRoundCrossEngine(t *testing.T) {
	g := grid.SmallTestGrid(3, 2, 2) // 12 ranks, 3 clusters
	const n, seed, blockRows = 16, 3, 64
	rounds := []Round{
		{Seed: seed, BlockRows: blockRows, Count: 4, Snapshot: true},
		{Seed: seed, BlockRows: blockRows, From: 4, Count: 3},
		{Seed: seed, BlockRows: blockRows, From: 7, Count: 0, Snapshot: true},
	}

	type obs struct {
		counters mpi.CounterSnapshot
		clock    float64
	}
	run := func(opts ...mpi.Option) obs {
		_, w := runPlan(t, g, n, rounds, opts...)
		return obs{w.Counters(), w.MaxClock()}
	}
	event := run(mpi.CostOnly())
	goroutine := run(mpi.CostOnly(), mpi.GoroutineEngine())
	if event.counters.PerClass != goroutine.counters.PerClass {
		t.Fatalf("cross-engine traffic differs:\nevent     %+v\ngoroutine %+v", event.counters, goroutine.counters)
	}
	// Flops are identical work summed across ranks in engine-dependent
	// order; only rounding in the last bits may differ.
	if diff := event.counters.Flops - goroutine.counters.Flops; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("cross-engine flops differ: event %g, goroutine %g", event.counters.Flops, goroutine.counters.Flops)
	}
	if event.clock != goroutine.clock {
		t.Fatalf("cross-engine clocks differ: event %g, goroutine %g", event.clock, goroutine.clock)
	}

	// Exact per-snapshot traffic: two snapshots, p−1 messages and one
	// packed triangle per merge each; inter-cluster messages are the
	// grid-tuned tree's sites−1 per snapshot. Folds move nothing.
	snaps := 2
	wantTotals := perfmodel.StreamSnapshotExact(n, g.Procs())
	total := event.counters.Total()
	if got := float64(total.Msgs); got != wantTotals.Msgs*float64(snaps) {
		t.Fatalf("total msgs %g, want %g", got, wantTotals.Msgs*float64(snaps))
	}
	if total.Bytes != wantTotals.Volume*float64(snaps) {
		t.Fatalf("total bytes %g, want %g", total.Bytes, wantTotals.Volume*float64(snaps))
	}
	if got := float64(event.counters.Inter().Msgs); got != perfmodel.TSQRExactCrossSite(len(g.Clusters))*float64(snaps) {
		t.Fatalf("inter-site msgs %g, want %g", got, perfmodel.TSQRExactCrossSite(len(g.Clusters))*float64(snaps))
	}
}

// TestRoundDataVsCostMessageParity: the data-mode stream sends exactly
// the messages the cost-only stream counts.
func TestRoundDataVsCostMessageParity(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	const n, seed, blockRows = 4, 21, 8
	rounds := []Round{{Seed: seed, BlockRows: blockRows, Count: 5, Snapshot: true}}
	_, wData := runPlan(t, g, n, rounds)
	_, wCost := runPlan(t, g, n, rounds, mpi.CostOnly())
	d, c := wData.Counters(), wCost.Counters()
	if d.Total().Msgs != c.Total().Msgs || d.Total().Bytes != c.Total().Bytes {
		t.Fatalf("data/cost traffic differs: data %+v, cost %+v", d.Total(), c.Total())
	}
}

// TestShardCoverage: the strided shards partition every global row
// exactly once, whatever the block size.
func TestShardCoverage(t *testing.T) {
	const p = 7
	for _, span := range [][2]int{{0, 100}, {13, 14}, {5, 5}, {99, 120}} {
		lo, hi := span[0], span[1]
		total := 0
		for rank := 0; rank < p; rank++ {
			c := ShardCount(lo, hi, rank, p)
			if got := ShardRows(1, 3, lo, hi, rank, p).Rows; got != c {
				t.Fatalf("rank %d [%d,%d): ShardRows %d rows, ShardCount %d", rank, lo, hi, got, c)
			}
			total += c
		}
		if total != hi-lo {
			t.Fatalf("[%d,%d): shards cover %d rows, want %d", lo, hi, total, hi-lo)
		}
	}
}

// sameFold reports whether two folders hold the same stream state bit
// for bit: row count, running R and the snapshot of everything absorbed.
func sameFold(a, b *Folder) bool {
	if a.Rows() != b.Rows() || (a.r == nil) != (b.r == nil) {
		return false
	}
	if a.r != nil && !bitEqual(a.r, b.r) {
		return false
	}
	return bitEqual(a.SnapshotLocal(), b.SnapshotLocal())
}

// TestShardIngestEqualsPush: a round's in-place ingest (rows generated
// straight into the panel buffer) leaves the folder exactly where
// Push(ShardRows(...)) does, bit for bit, for every rank of the
// partition, ranges that straddle panel boundaries, shards with no
// rows, and a clone taken mid-panel and then ingested into.
func TestShardIngestEqualsPush(t *testing.T) {
	const seed = 13
	for _, n := range []int{3, 16, 64} {
		for _, panel := range []int{0, 5, 7} {
			for p := 1; p <= 3; p++ {
				for rank := 0; rank < p; rank++ {
					ref, got := NewFolder(n, panel), NewFolder(n, panel)
					P := got.PanelRows()
					// Global range lengths: empty, one row (no rows for
					// p−1 ranks), just short of and just past a panel per
					// rank, fewer rows than ranks, several panels, half a one.
					var pairs [][2]*Folder
					lo := 0
					for _, k := range []int{0, 1, p*P - 2, 3, p*P + 1, p - 1, 2*p*P + 7, p * P / 2} {
						ref.Push(ShardRows(seed, n, lo, lo+k, rank, p))
						got.pushShard(seed, lo, lo+k, rank, p)
						for _, c := range pairs {
							c[0].Push(ShardRows(seed, n, lo, lo+k, rank, p))
							c[1].pushShard(seed, lo, lo+k, rank, p)
						}
						lo += k
						if !sameFold(ref, got) {
							t.Fatalf("n=%d panel=%d p=%d rank=%d after %d global rows: in-place ingest differs from Push(ShardRows)",
								n, P, p, rank, lo)
						}
						for _, c := range pairs {
							if !sameFold(c[0], c[1]) {
								t.Fatalf("n=%d panel=%d p=%d rank=%d after %d global rows: clones differ",
									n, P, p, rank, lo)
							}
						}
						if pairs == nil && got.used > 0 {
							pairs = append(pairs, [2]*Folder{ref.Clone(), got.Clone()})
						}
					}
					if pairs == nil {
						t.Fatalf("n=%d panel=%d p=%d rank=%d: never mid-panel, no clone taken", n, P, p, rank)
					}
					if !sameFold(pairs[0][1], got) {
						t.Fatalf("n=%d panel=%d p=%d rank=%d: resumed clone differs from the original", n, P, p, rank)
					}
				}
			}
		}
	}
}
