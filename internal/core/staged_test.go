package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// runStagedWorld executes one staged pass over a fresh world and returns
// the per-rank results plus the world (for its message counters).
func runStagedWorld(t *testing.T, g *grid.Grid, global *matrix.Dense, m, n int,
	cfg Config, gate *PreemptGate) ([]*StagedResult, *mpi.World) {
	t.Helper()
	p := g.Procs()
	offsets := scalapack.BlockOffsets(m, p)
	w := mpi.NewWorld(g)
	results := make([]*StagedResult, p)
	var mu sync.Mutex
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets,
			Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := FactorizeStaged(comm, in, cfg, gate)
		mu.Lock()
		results[ctx.Rank()] = res
		mu.Unlock()
	})
	return results, w
}

// runResumeWorld replays a checkpoint over a fresh world.
func runResumeWorld(t *testing.T, g *grid.Grid, sc *StageCheckpoint,
	gate *PreemptGate) ([]*StagedResult, *mpi.World) {
	t.Helper()
	w := mpi.NewWorld(g)
	results := make([]*StagedResult, g.Procs())
	var mu sync.Mutex
	w.Run(func(ctx *mpi.Ctx) {
		res := ResumeStaged(mpi.WorldComm(ctx), sc, gate)
		mu.Lock()
		results[ctx.Rank()] = res
		mu.Unlock()
	})
	return results, w
}

func bitwiseEqual(a, b *matrix.Dense) bool {
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

func collectFrags(results []*StagedResult) ([]*RankCheckpoint, bool) {
	var frags []*RankCheckpoint
	preempted := false
	for _, r := range results {
		if r.Preempted {
			preempted = true
		}
		if r.Ckpt != nil {
			frags = append(frags, r.Ckpt)
		}
	}
	return frags, preempted
}

// referenceRun produces the uninterrupted Factorize R (raw bits, no sign
// normalization — the staged path must reproduce it exactly) and the
// run's total message count.
func referenceRun(t *testing.T, g *grid.Grid, global *matrix.Dense, m, n int,
	cfg Config) (*matrix.Dense, int64) {
	t.Helper()
	p := g.Procs()
	offsets := scalapack.BlockOffsets(m, p)
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var r *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets,
			Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := Factorize(comm, in, cfg)
		if ctx.Rank() == 0 {
			mu.Lock()
			r = res.R
			mu.Unlock()
		}
	})
	return r, w.Counters().Total().Msgs
}

// TestStagedUninterruptedMatchesFactorize: without a stop, the staged
// walk is Factorize — with no gate and with a fresh gate nobody requests,
// in data and cost-only worlds, it returns the same R bits and sends the
// same messages, inter-site ones included.
func TestStagedUninterruptedMatchesFactorize(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2) // 8 procs, 2 clusters
	m, n := 64, 6
	offsets := scalapack.BlockOffsets(m, g.Procs())
	global := matrix.Random(m, n, 7)
	for _, costOnly := range []bool{false, true} {
		var opts []mpi.Option
		if costOnly {
			opts = append(opts, mpi.CostOnly())
		}
		// run executes body on every rank of a fresh world and returns
		// rank 0's R with the world's counters.
		run := func(body func(*mpi.Comm, Input) *matrix.Dense) (*matrix.Dense, mpi.CounterSnapshot) {
			w := mpi.NewWorld(g, opts...)
			var r *matrix.Dense
			var mu sync.Mutex
			w.Run(func(ctx *mpi.Ctx) {
				in := Input{M: m, N: n, Offsets: offsets}
				if !costOnly {
					in.Local = scalapack.Distribute(global, offsets, ctx.Rank())
				}
				got := body(mpi.WorldComm(ctx), in)
				if ctx.Rank() == 0 {
					mu.Lock()
					r = got
					mu.Unlock()
				}
			})
			return r, w.Counters()
		}
		for _, tree := range []Tree{TreeGrid, TreeBinary, TreeBinaryShuffled} {
			cfg := Config{Tree: tree, ShuffleSeed: 3}
			ref, refC := run(func(comm *mpi.Comm, in Input) *matrix.Dense {
				return Factorize(comm, in, cfg).R
			})
			for _, gate := range []*PreemptGate{nil, NewPreemptGate()} {
				name := fmt.Sprintf("costOnly=%v tree=%v gate=%v", costOnly, tree, gate != nil)
				got, gotC := run(func(comm *mpi.Comm, in Input) *matrix.Dense {
					res := FactorizeStaged(comm, in, cfg, gate)
					if res.Preempted {
						t.Errorf("%s: rank %d preempted without a gate request", name, comm.Rank())
					}
					return res.R
				})
				if costOnly {
					if got != nil {
						t.Fatalf("%s: cost-only staged run returned data", name)
					}
				} else if !bitwiseEqual(got, ref) {
					t.Fatalf("%s: staged R differs bitwise from Factorize", name)
				}
				if g, w := gotC.Total().Msgs, refC.Total().Msgs; g != w {
					t.Fatalf("%s: staged msgs %d != Factorize %d", name, g, w)
				}
				if g, w := gotC.Inter().Msgs, refC.Inter().Msgs; g != w {
					t.Fatalf("%s: staged inter-site msgs %d != Factorize %d", name, g, w)
				}
			}
		}
	}
}

// TestGateClosureRules pins shouldStop's two closure rules on latched
// state: a stop latched at a lower stage stops every higher one, and a
// go latched at a higher stage runs every lower one, so the stopped set
// stays upward-closed whatever the request flag says.
func TestGateClosureRules(t *testing.T) {
	g := NewPreemptGate()
	g.decisions[2] = true
	if !g.shouldStop(3) {
		t.Error("stage 3 runs above a stop latched at stage 2")
	}
	g = NewPreemptGate()
	g.Request()
	g.decisions[5] = false
	if g.shouldStop(4) {
		t.Error("stage 4 stops below a go latched at stage 5")
	}
}

// TestStagedPreemptResumeBitwise is the PR's acceptance criterion: a job
// preempted at every possible tree-stage boundary and resumed on a
// topologically different partition reproduces the uninterrupted R bit
// for bit, and the two halves together send exactly the uninterrupted
// run's messages.
func TestStagedPreemptResumeBitwise(t *testing.T) {
	gA := grid.SmallTestGrid(2, 2, 2) // 8 procs over 2 sites
	gB := grid.SmallTestGrid(4, 1, 2) // 8 procs over 4 sites — a different partition
	m, n := 64, 6
	for _, tree := range []Tree{TreeGrid, TreeBinaryShuffled, TreeBinary, TreeFlat, TreeMultiLevel} {
		cfg := Config{Tree: tree, ShuffleSeed: 3}
		global := matrix.Random(m, n, 11)
		ref, refMsgs := referenceRun(t, gA, global, m, n, cfg)

		sawCuts := 0
		for cut := 1; cut < 64; cut++ {
			gate := NewPreemptGate()
			gate.RequestAt(cut)
			results, wA := runStagedWorld(t, gA, global, m, n, cfg, gate)
			frags, preempted := collectFrags(results)
			if !preempted {
				// The cut lies past the last boundary: the run completed.
				if !bitwiseEqual(results[0].R, ref) {
					t.Fatalf("tree=%v cut=%d: completed run differs from reference", tree, cut)
				}
				break
			}
			sawCuts++
			sc := AssembleCheckpoint(frags)
			if sc == nil {
				t.Fatalf("tree=%v cut=%d: preempted but no fragments", tree, cut)
			}
			resumed, wB := runResumeWorld(t, gB, sc, nil)
			if !bitwiseEqual(resumed[0].R, ref) {
				t.Fatalf("tree=%v cut=%d (stage %d): resumed R differs bitwise from uninterrupted run",
					tree, cut, sc.Stage)
			}
			got := wA.Counters().Total().Msgs + wB.Counters().Total().Msgs
			if got != refMsgs {
				t.Fatalf("tree=%v cut=%d: staged+resumed msgs %d != uninterrupted %d",
					tree, cut, got, refMsgs)
			}
		}
		if sawCuts == 0 {
			t.Fatalf("tree=%v: no preemption boundary was exercised", tree)
		}
	}
}

// TestStagedDoublePreemption preempts the resumed run again: checkpoint →
// resume → checkpoint → resume, hopping partitions each time.
func TestStagedDoublePreemption(t *testing.T) {
	gA := grid.SmallTestGrid(2, 2, 2)
	gB := grid.SmallTestGrid(4, 1, 2)
	m, n := 64, 6
	cfg := Config{Tree: TreeGrid}
	global := matrix.Random(m, n, 13)
	ref, refMsgs := referenceRun(t, gA, global, m, n, cfg)

	gate1 := NewPreemptGate()
	gate1.RequestAt(1)
	results, w1 := runStagedWorld(t, gA, global, m, n, cfg, gate1)
	frags, preempted := collectFrags(results)
	if !preempted {
		t.Fatal("first preemption did not trigger")
	}
	sc1 := AssembleCheckpoint(frags)

	gate2 := NewPreemptGate()
	gate2.RequestAt(2)
	mid, w2 := runResumeWorld(t, gB, sc1, gate2)
	frags2, preempted2 := collectFrags(mid)
	if !preempted2 {
		t.Fatal("second preemption did not trigger")
	}
	sc2 := AssembleCheckpoint(frags2)
	if sc2.Stage <= sc1.Stage {
		t.Fatalf("second cut stage %d did not advance past first %d", sc2.Stage, sc1.Stage)
	}

	final, w3 := runResumeWorld(t, gA, sc2, nil)
	if !bitwiseEqual(final[0].R, ref) {
		t.Fatal("doubly preempted R differs bitwise from uninterrupted run")
	}
	got := w1.Counters().Total().Msgs + w2.Counters().Total().Msgs + w3.Counters().Total().Msgs
	if got != refMsgs {
		t.Fatalf("message conservation broken: %d != %d", got, refMsgs)
	}
}

// TestStagedCostOnlyConservation checks the cost-only path: checkpoints
// carry no data, liveness is derived from the schedule, and message
// counts are still conserved across the cut.
func TestStagedCostOnlyConservation(t *testing.T) {
	// Seed 3's shuffled tree roots away from domain 0: the gated delivery
	// hop, with rank 0 already absorbed, cost-only.
	for _, cfg := range []Config{{Tree: TreeGrid}, {Tree: TreeBinaryShuffled, ShuffleSeed: 3}} {
		stagedCostOnlyConservation(t, cfg)
	}
}

func stagedCostOnlyConservation(t *testing.T, cfg Config) {
	gA := grid.SmallTestGrid(2, 2, 2)
	gB := grid.SmallTestGrid(4, 1, 2)
	m, n := 64, 6
	p := gA.Procs()
	offsets := scalapack.BlockOffsets(m, p)

	ref := mpi.NewWorld(gA, mpi.CostOnly())
	ref.Run(func(ctx *mpi.Ctx) {
		Factorize(mpi.WorldComm(ctx), Input{M: m, N: n, Offsets: offsets}, cfg)
	})
	refMsgs := ref.Counters().Total().Msgs
	refBytes := ref.Counters().Total().Bytes

	for cut := 1; cut < 16; cut++ {
		gate := NewPreemptGate()
		gate.RequestAt(cut)
		w1 := mpi.NewWorld(gA, mpi.CostOnly())
		results := make([]*StagedResult, p)
		var mu sync.Mutex
		w1.Run(func(ctx *mpi.Ctx) {
			res := FactorizeStaged(mpi.WorldComm(ctx),
				Input{M: m, N: n, Offsets: offsets}, cfg, gate)
			mu.Lock()
			results[ctx.Rank()] = res
			mu.Unlock()
		})
		frags, preempted := collectFrags(results)
		if !preempted {
			break
		}
		sc := AssembleCheckpoint(frags)
		w2 := mpi.NewWorld(gB, mpi.CostOnly())
		w2.Run(func(ctx *mpi.Ctx) {
			ResumeStaged(mpi.WorldComm(ctx), sc, nil)
		})
		if got := w1.Counters().Total().Msgs + w2.Counters().Total().Msgs; got != refMsgs {
			t.Fatalf("cut=%d: msgs %d != %d", cut, got, refMsgs)
		}
		if got := w1.Counters().Total().Bytes + w2.Counters().Total().Bytes; got != refBytes {
			t.Fatalf("cut=%d: bytes %g != %g", cut, got, refBytes)
		}
	}
}

func TestStageLeveling(t *testing.T) {
	// A flat tree folds everything into domain 0: stages must be 1..k.
	sched := []merge{{dst: 0, src: 1}, {dst: 0, src: 2}, {dst: 0, src: 3}}
	stages := stageMerges(sched)
	for i, want := range []int{1, 2, 3} {
		if stages[i] != want {
			t.Fatalf("flat stages = %v", stages)
		}
	}
	// A balanced binomial over 4: (0←1) and (2←3) share stage 1, (0←2) is 2.
	sched = []merge{{dst: 0, src: 1}, {dst: 2, src: 3}, {dst: 0, src: 2}}
	stages = stageMerges(sched)
	if stages[0] != 1 || stages[1] != 1 || stages[2] != 2 {
		t.Fatalf("binomial stages = %v", stages)
	}
}

func TestPreemptGateConsistency(t *testing.T) {
	// Whatever order stages are queried in, the stopped set must be
	// upward-closed and each stage's answer stable.
	g := NewPreemptGate()
	if g.shouldStop(3) {
		t.Fatal("no request yet")
	}
	g.Request()
	if g.shouldStop(3) {
		t.Fatal("stage 3 already latched go")
	}
	if !g.shouldStop(4) {
		t.Fatal("stage 4 should stop after request")
	}
	if g.shouldStop(2) {
		t.Fatal("stage 2 must not stop below a latched go at 3")
	}
	if !g.shouldStop(5) {
		t.Fatal("upward closure: stage 5 must stop")
	}
	// A nil gate never stops.
	var nilGate *PreemptGate
	if nilGate.shouldStop(1) {
		t.Fatal("nil gate stopped")
	}
}
