package mpi

import (
	"reflect"
	"testing"

	"gridqr/internal/grid"
)

// Cross-engine equivalence: the event-driven scheduler and the
// goroutine-per-rank runtime must be observationally identical on
// cost-only worlds — same per-class message and byte counters, same
// per-rank virtual clocks and time breakdowns, same virtual end time,
// same injected faults and deaths. The table crosses platform shapes ×
// communication shapes × fault plans × seeds; any divergence means one
// engine's delivery, wait-accounting or fault semantics drifted.

// worldOutcome is everything observable about a finished cost-only run.
type worldOutcome struct {
	maxClock   float64
	clocks     []float64
	breakdowns []TimeBreakdown
	counters   CounterSnapshot
	faults     FaultCounts
	dead       []int
}

func outcomeOf(w *World) worldOutcome {
	out := worldOutcome{
		maxClock: w.MaxClock(),
		clocks:   append([]float64(nil), w.clocks...),
		counters: w.Counters(),
		faults:   w.FaultCounts(),
		dead:     w.DeadRanks(),
	}
	for r := 0; r < w.n; r++ {
		out.breakdowns = append(out.breakdowns, w.BreakdownOf(r))
	}
	return out
}

// crossShape is one communication pattern run identically on both
// engines. Bodies only depend on rank and size, never on wall time.
type crossShape struct {
	name string
	// killable shapes use Try* operations throughout so a fault plan
	// may kill a rank without wedging its peers.
	killable bool
	body     func(ctx *Ctx)
}

var crossShapes = []crossShape{
	{name: "ring", body: func(ctx *Ctx) {
		c := WorldComm(ctx)
		n, r := c.Size(), c.Rank()
		if n < 2 {
			return
		}
		for round := 0; round < 3; round++ {
			c.Send((r+1)%n, make([]float64, 16+8*round+r%4), 10+round)
			c.Recv((r+n-1)%n, 10+round)
			ctx.Kernel("compute", 1e6, 16, nil)
		}
	}},
	{name: "butterfly", body: func(ctx *Ctx) {
		c := WorldComm(ctx)
		n, r := c.Size(), c.Rank()
		for mask := 1; mask < n; mask <<= 1 {
			p := r ^ mask
			if p >= n {
				continue
			}
			c.Send(p, make([]float64, 64), 20+mask)
			c.Recv(p, 20+mask)
		}
	}},
	{name: "collectives", body: func(ctx *Ctx) {
		c := WorldComm(ctx)
		c.Bcast(0, make([]float64, 32))
		c.Allreduce(make([]float64, 8), OpSum)
		c.AllreduceOverlap(make([]float64, 8), OpMax, func() {})
	}},
	{name: "hotspot-try", killable: true, body: func(ctx *Ctx) {
		c := WorldComm(ctx)
		n, r := c.Size(), c.Rank()
		if n < 3 {
			return
		}
		if r == 0 {
			for from := 1; from < n; from++ {
				_, _ = c.TryRecv(from, 30)
			}
			for to := 1; to < n; to++ {
				_ = c.TrySend(to, make([]float64, 8), 31)
			}
		} else {
			_ = c.TrySend(0, make([]float64, 8+r%8), 30)
			_, _ = c.TryRecv(0, 31)
		}
	}},
}

// crossPlan builds a fresh fault plan per world (plans are immutable but
// building fresh mirrors how callers use them).
type crossPlan struct {
	name      string
	needsKill bool // only pair with killable shapes
	build     func(seed int64) *FaultPlan
}

var crossPlans = []crossPlan{
	{name: "none", build: func(int64) *FaultPlan { return nil }},
	{name: "drop-delay", build: func(seed int64) *FaultPlan {
		return NewFaultPlan(seed).
			Drop(AnyRank, AnyRank, AnyTag, 0.03, 2).
			Delay(AnyRank, AnyRank, AnyTag, 0.15, 0.002, 0)
	}},
	{name: "kill", needsKill: true, build: func(seed int64) *FaultPlan {
		// Rank 1 dies at its second operation: its hotspot send gets out,
		// then it drops dead before receiving the reply.
		return NewFaultPlan(seed).Kill(1, 1).Delay(AnyRank, AnyRank, AnyTag, 0.1, 0.001, 0)
	}},
}

func TestCrossEngineEquivalence(t *testing.T) {
	grids := []struct {
		name string
		g    *grid.Grid
	}{
		{"small-1x4", grid.SmallTestGrid(1, 4, 1)},
		{"small-2x2x2", grid.SmallTestGrid(2, 2, 2)},
		{"small-4x4x2", grid.SmallTestGrid(4, 4, 2)},
		{"hier-1+3", grid.SyntheticHier([]int{1, 3}, 2, 2)},
		{"grid5000", grid.Grid5000()},
	}
	for _, gc := range grids {
		for _, sh := range crossShapes {
			for _, pl := range crossPlans {
				if pl.needsKill && !sh.killable {
					continue
				}
				seeds := []int64{1, 2}
				if pl.name == "none" {
					seeds = seeds[:1] // seed unused without a plan
				}
				for _, seed := range seeds {
					seed := seed
					name := gc.name + "/" + sh.name + "/" + pl.name
					if len(seeds) > 1 {
						name += "/seed=" + string('0'+rune(seed))
					}
					gc, sh, pl := gc, sh, pl
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						run := func(force bool) (*World, worldOutcome) {
							opts := []Option{CostOnly()}
							if plan := pl.build(seed); plan != nil {
								opts = append(opts, WithFaults(plan))
							}
							if force {
								opts = append(opts, GoroutineEngine())
							}
							w := NewWorld(gc.g, opts...)
							w.Run(sh.body)
							return w, outcomeOf(w)
						}
						evW, ev := run(false)
						gorW, gor := run(true)
						if !evW.EventDriven() {
							t.Fatal("default cost-only world did not select the event engine")
						}
						if gorW.EventDriven() {
							t.Fatal("GoroutineEngine() world still event-driven")
						}
						if got := evW.EngineStats().Engine; got != "event" {
							t.Errorf("event world EngineStats.Engine = %q", got)
						}
						if got := gorW.EngineStats().Engine; got != "goroutine" {
							t.Errorf("goroutine world EngineStats.Engine = %q", got)
						}
						if ev.counters != gor.counters {
							t.Errorf("counters diverge:\n event:    %+v\n goroutine: %+v",
								ev.counters, gor.counters)
						}
						if ev.maxClock != gor.maxClock {
							t.Errorf("virtual end time diverges: event %.9f vs goroutine %.9f",
								ev.maxClock, gor.maxClock)
						}
						if ev.faults != gor.faults {
							t.Errorf("fault counts diverge:\n event:    %+v\n goroutine: %+v",
								ev.faults, gor.faults)
						}
						if pl.needsKill && len(ev.dead) == 0 {
							t.Error("kill plan armed but no rank died")
						}
						if !reflect.DeepEqual(ev.dead, gor.dead) {
							t.Errorf("dead ranks diverge: event %v vs goroutine %v", ev.dead, gor.dead)
						}
						for r := range ev.clocks {
							if ev.clocks[r] != gor.clocks[r] {
								t.Errorf("rank %d clock diverges: event %.9f vs goroutine %.9f",
									r, ev.clocks[r], gor.clocks[r])
							}
							if ev.breakdowns[r] != gor.breakdowns[r] {
								t.Errorf("rank %d breakdown diverges:\n event:    %+v\n goroutine: %+v",
									r, ev.breakdowns[r], gor.breakdowns[r])
							}
						}
					})
				}
			}
		}
	}
}

// TestCrossEngineRerunDeterminism pins the stronger property the event
// engine is built on: two runs of the same workload on the same engine
// are bitwise identical, including with faults armed.
func TestCrossEngineRerunDeterminism(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	for _, force := range []bool{false, true} {
		force := force
		name := "event"
		if force {
			name = "goroutine"
		}
		t.Run(name, func(t *testing.T) {
			run := func() worldOutcome {
				opts := []Option{CostOnly(),
					WithFaults(NewFaultPlan(7).
						Drop(AnyRank, AnyRank, AnyTag, 0.05, 1).
						Delay(AnyRank, AnyRank, AnyTag, 0.2, 0.003, 0))}
				if force {
					opts = append(opts, GoroutineEngine())
				}
				w := NewWorld(g, opts...)
				w.Run(crossShapes[0].body)
				return outcomeOf(w)
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("rerun diverges:\n first:  %+v\n second: %+v", a, b)
			}
		})
	}
}
