package bench

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"gridqr/internal/core"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
	"gridqr/internal/telemetry"
)

// TestScaleSmoke4k is the CI `scale` job's structural check: the 4k-rank
// cost-only point must run on the event engine and reproduce the exact
// communication structure the sweep is built around — a binomial-family
// reduction sends ranks−1 messages, the asymmetric two-continent
// platform costs the grid tree two inter-continental hops, and the
// multi-level tree exactly continents−1 = 1.
func TestScaleSmoke4k(t *testing.T) {
	const ranks = 4096
	for _, tc := range []struct {
		tree               core.Tree
		wantInterSite      int64
		wantInterContinent int64
	}{
		{core.TreeGrid, 3, 2},
		{core.TreeMultiLevel, 3, 1},
	} {
		t.Run(tc.tree.String(), func(t *testing.T) {
			sr, stats := ScalePoint(ranks, TSQR, tc.tree)
			if sr.Engine != "event" {
				t.Errorf("engine = %q, want event", sr.Engine)
			}
			if sr.Msgs != ranks-1 {
				t.Errorf("msgs = %d, want %d (binomial reduction)", sr.Msgs, ranks-1)
			}
			if sr.InterSiteMsgs != tc.wantInterSite {
				t.Errorf("inter-site msgs = %d, want %d", sr.InterSiteMsgs, tc.wantInterSite)
			}
			if sr.InterContinentMsgs != tc.wantInterContinent {
				t.Errorf("inter-continent msgs = %d, want %d", sr.InterContinentMsgs, tc.wantInterContinent)
			}
			if sr.Seconds <= 0 || sr.ModelSeconds <= 0 {
				t.Errorf("times not positive: virtual %g, model %g", sr.Seconds, sr.ModelSeconds)
			}
			// The pending-message high-water mark is the engine's memory
			// story: a binomial round has at most ranks/2 messages in
			// flight, never O(ranks × mailbox depth).
			if stats.PeakPending > ranks {
				t.Errorf("peak pending = %d, want ≤ %d", stats.PeakPending, ranks)
			}
		})
	}
}

// TestScale32kMemoryCeiling proves the tentpole claim: a 32k-rank
// cost-only sweep point fits in O(active events + ranks) memory, not
// O(ranks × goroutine stack × mailbox). The ceiling is 1.5× the 4234
// B/rank the point allocates on go1.24 — the coroutine bookkeeping, the
// per-rank clocks/counter arrays and the O(ranks) trace spans — so none
// of them can grow unnoticed; it is three orders of magnitude below the
// ~8 MiB-per-goroutine-stack regime the event engine replaces.
func TestScale32kMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("32k-rank point skipped in -short")
	}
	const ranks = 32768
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sr, stats := ScalePoint(ranks, TSQR, core.TreeMultiLevel)
	runtime.ReadMemStats(&after)

	if sr.Engine != "event" {
		t.Fatalf("engine = %q, want event", sr.Engine)
	}
	if sr.Msgs != ranks-1 || sr.InterContinentMsgs != 1 {
		t.Errorf("structure drifted: msgs %d inter-continent %d", sr.Msgs, sr.InterContinentMsgs)
	}
	// TotalAlloc counts every byte ever allocated during the point —
	// a much stricter bound than live heap, and immune to GC timing.
	allocated := after.TotalAlloc - before.TotalAlloc
	const ceiling = 4234 * 3 / 2 // bytes per rank
	perRank := allocated / ranks
	t.Logf("allocated %d bytes = %d B/rank", allocated, perRank)
	if perRank > ceiling {
		t.Errorf("allocated %d bytes = %d B/rank, want ≤ %d B/rank", allocated, perRank, ceiling)
	}
	if stats.PeakPending > ranks {
		t.Errorf("peak pending = %d, want ≤ %d (O(active events))", stats.PeakPending, ranks)
	}
}

// TestScaleCrossEngine256 re-checks engine equivalence at the bench
// level, on the real TSQR and ScaLAPACK codes over the synthetic scale
// platform at 256 ranks: identical counters, virtual end time and traced
// critical-path decomposition whichever engine runs the world.
func TestScaleCrossEngine256(t *testing.T) {
	const (
		ranks = 256
		m     = ranks * scaleRowsPerRank
	)
	g := ScalePlatform(ranks)
	offsets := scalapack.BlockOffsets(m, ranks)
	bodies := map[string]func(ctx *mpi.Ctx){
		"tsqr-grid": func(ctx *mpi.Ctx) {
			core.Factorize(mpi.WorldComm(ctx), core.Input{M: m, N: ScaleN, Offsets: offsets},
				core.Config{Tree: core.TreeGrid})
		},
		"tsqr-multi-level": func(ctx *mpi.Ctx) {
			core.Factorize(mpi.WorldComm(ctx), core.Input{M: m, N: ScaleN, Offsets: offsets},
				core.Config{Tree: core.TreeMultiLevel})
		},
		"scalapack": func(ctx *mpi.Ctx) {
			scalapack.PDGEQR2(mpi.WorldComm(ctx), scalapack.Input{M: m, N: ScaleN, Offsets: offsets})
		},
	}
	for name, body := range bodies {
		name, body := name, body
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			type outcome struct {
				counters mpi.CounterSnapshot
				maxClock float64
				crit     telemetry.CriticalPath
			}
			run := func(force bool) outcome {
				opts := []mpi.Option{mpi.CostOnly(), mpi.Traced()}
				if force {
					opts = append(opts, mpi.GoroutineEngine())
				}
				w := mpi.NewWorld(g, opts...)
				w.Run(body)
				crit := telemetry.AnalyzeCriticalPath(w.Trace())
				crit.Steps = nil // compared via the summary fields
				return outcome{counters: w.Counters(), maxClock: w.MaxClock(), crit: crit}
			}
			ev, gor := run(false), run(true)
			if ev.counters.PerClass != gor.counters.PerClass {
				t.Errorf("per-class counters diverge:\n event:    %+v\n goroutine: %+v",
					ev.counters.PerClass, gor.counters.PerClass)
			}
			// The global flop counter sums per-rank contributions in
			// scheduling order, so the goroutine engine may differ in the
			// last few ULPs; everything else must be bitwise equal.
			if d := math.Abs(ev.counters.Flops - gor.counters.Flops); d > 1e-9*ev.counters.Flops {
				t.Errorf("flops diverge: event %v vs goroutine %v", ev.counters.Flops, gor.counters.Flops)
			}
			if ev.maxClock != gor.maxClock {
				t.Errorf("virtual end time diverges: event %.9f vs goroutine %.9f", ev.maxClock, gor.maxClock)
			}
			if !reflect.DeepEqual(ev.crit, gor.crit) {
				t.Errorf("critical path diverges:\n event:    %+v\n goroutine: %+v", ev.crit, gor.crit)
			}
		})
	}
}

// TestScaleStudyFiltering pins the sweep's budget knobs: maxRanks caps
// the rank counts, and the flat tree and ScaLAPACK reference never run
// above ScaleScaLAPACKCap.
func TestScaleStudyFiltering(t *testing.T) {
	runs := ScaleStudy(1024, []core.Tree{core.TreeGrid, core.TreeFlat})
	var algos []string
	for _, r := range runs {
		if r.Ranks > 1024 {
			t.Errorf("run at %d ranks exceeds maxRanks", r.Ranks)
		}
		algos = append(algos, r.Algo+"/"+r.Tree)
	}
	want := []string{"TSQR/grid", "TSQR/flat", "ScaLAPACK/"}
	if !reflect.DeepEqual(algos, want) {
		t.Errorf("runs = %v, want %v", algos, want)
	}
	if c := ScaleCrossovers(runs); c[1024] == "" {
		t.Errorf("no crossover winner recorded at 1024 ranks: %v", c)
	}
}

// TestScalePlatformShape pins the synthetic hierarchy the sweep depends
// on: two continents of unequal weight, so rank-major binomial trees
// cannot accidentally align with the continent level.
func TestScalePlatformShape(t *testing.T) {
	g := ScalePlatform(1024)
	if got := g.Procs(); got != 1024 {
		t.Errorf("procs = %d, want 1024", got)
	}
	if got := g.Continents(); got != 2 {
		t.Errorf("continents = %d, want 2", got)
	}
	perCont := map[int]int{}
	for c := range g.Clusters {
		perCont[g.ContinentOf(c)]++
	}
	if perCont[0] == perCont[1] {
		t.Errorf("continent weights equal (%v); asymmetry is what separates the trees", perCont)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-multiple-of-32 rank count did not panic")
		}
	}()
	ScalePlatform(100)
}
