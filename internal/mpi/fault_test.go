package mpi

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gridqr/internal/grid"
	"gridqr/internal/telemetry"
)

// faultWorld is testWorld with a fault plan armed.
func faultWorld(n int, plan *FaultPlan, opts ...Option) *World {
	return NewWorld(grid.SmallTestGrid(1, n, 1), append(opts, WithFaults(plan))...)
}

func TestNegativeUserTagPanics(t *testing.T) {
	for _, op := range []string{"send", "sendbytes", "recv", "trysend", "tryrecv"} {
		op := op
		t.Run(op, func(t *testing.T) {
			w := testWorld(2)
			var caught atomic0
			defer func() {
				recover() // World.Run re-raises the rank panic
				if caught.Load() == 0 {
					t.Fatalf("%s with negative tag did not panic", op)
				}
			}()
			w.Run(func(ctx *Ctx) {
				c := WorldComm(ctx)
				if ctx.Rank() != 0 {
					return
				}
				defer func() {
					if p := recover(); p != nil {
						caught.Store(1)
						panic(p) // let Run's recovery see it too
					}
				}()
				switch op {
				case "send":
					c.Send(1, []float64{1}, -3)
				case "sendbytes":
					c.Send(1, nil, -1, 1)
				case "recv":
					c.Recv(1, -2)
				case "trysend":
					_ = c.TrySend(1, []float64{1}, -4)
				case "tryrecv":
					_, _ = c.TryRecv(1, -5)
				}
			})
		})
	}
}

// atomic0 is a tiny atomic flag usable across the Run goroutines.
type atomic0 struct {
	mu sync.Mutex
	v  int
}

func (a *atomic0) Store(v int) { a.mu.Lock(); a.v = v; a.mu.Unlock() }
func (a *atomic0) Load() int   { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

func TestDropExhaustionReturnsRankFailed(t *testing.T) {
	// Drop every attempt on tag 5: the sender must give up after
	// MaxRetries attempts with a typed error.
	plan := NewFaultPlan(1).Drop(0, 1, 5, 1.0, 0)
	w := faultWorld(2, plan)
	var got error
	var mu sync.Mutex
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		if ctx.Rank() == 0 {
			err := c.TrySend(1, []float64{1}, 5)
			mu.Lock()
			got = err
			mu.Unlock()
			// Tell rank 1 on a clean tag so it can stop waiting.
			c.Send(1, []float64{0}, 6)
		} else {
			c.Recv(0, 6)
		}
	})
	var rf *RankFailedError
	if !errors.As(got, &rf) {
		t.Fatalf("TrySend error = %v, want RankFailedError", got)
	}
	if rf.Rank != 1 || rf.Op != "send" {
		t.Errorf("RankFailedError = %+v", *rf)
	}
	if fc := w.FaultCounts(); fc.Drops != int64(plan.MaxRetries) {
		t.Errorf("Drops = %d, want %d (every attempt dropped)", fc.Drops, plan.MaxRetries)
	}
}

func TestDropWithRetrySucceeds(t *testing.T) {
	// Drop exactly the first two attempts; the third succeeds.
	plan := NewFaultPlan(1).Drop(0, 1, 5, 1.0, 2)
	w := faultWorld(2, plan)
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		if ctx.Rank() == 0 {
			if err := c.TrySend(1, []float64{42}, 5); err != nil {
				t.Errorf("TrySend = %v, want success after retries", err)
			}
		} else {
			if got, err := c.TryRecv(0, 5); err != nil || got[0] != 42 {
				t.Errorf("TryRecv = %v, %v", got, err)
			}
		}
	})
	if fc := w.FaultCounts(); fc.Drops != 2 {
		t.Errorf("Drops = %d, want 2", fc.Drops)
	}
}

func TestDelayRuleVirtualMode(t *testing.T) {
	// A deterministic 50 ms delay on the only message must show up in the
	// receiver's virtual clock.
	const extra = 50e-3
	run := func(plan *FaultPlan) float64 {
		w := faultWorld(2, plan, Virtual())
		w.Run(func(ctx *Ctx) {
			c := WorldComm(ctx)
			if ctx.Rank() == 0 {
				c.Send(1, []float64{1}, 5)
			} else {
				c.Recv(0, 5)
			}
		})
		return w.clocks[1]
	}
	base := run(NewFaultPlan(1))
	delayed := run(NewFaultPlan(1).Delay(0, 1, 5, 1.0, extra, 0))
	if diff := delayed - base; diff < extra*0.99 || diff > extra*1.01 {
		t.Errorf("delay rule added %.6f s of virtual time, want %.3f", diff, extra)
	}
}

func TestKillDetectedByReceiver(t *testing.T) {
	// Rank 1 dies before its first operation; rank 0's receive must fail
	// with a typed RankFailedError instead of hanging.
	plan := NewFaultPlan(1).Kill(1, 0)
	w := faultWorld(2, plan)
	var got error
	var mu sync.Mutex
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		if ctx.Rank() == 0 {
			_, err := c.TryRecv(1, 5)
			mu.Lock()
			got = err
			mu.Unlock()
		} else {
			c.Send(0, []float64{1}, 5) // never reached: killed at op 0
		}
	})
	var rf *RankFailedError
	if !errors.As(got, &rf) {
		t.Fatalf("TryRecv error = %v, want RankFailedError", got)
	}
	if rf.Rank != 1 || rf.Op != "recv" {
		t.Errorf("RankFailedError = %+v", *rf)
	}
	if !w.RankDead(1) || w.RankDead(0) {
		t.Errorf("DeadRanks = %v, want [1]", w.DeadRanks())
	}
	if fc := w.FaultCounts(); fc.Kills != 1 {
		t.Errorf("Kills = %d, want 1", fc.Kills)
	}
}

func TestInFlightMessageSurvivesSender(t *testing.T) {
	// Rank 1 sends, then dies at its second operation. The message is
	// already enqueued, so rank 0 must still receive it — and only the
	// *next* receive observes the death.
	plan := NewFaultPlan(1).Kill(1, 1)
	w := faultWorld(2, plan)
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		if ctx.Rank() == 0 {
			got, err := c.TryRecv(1, 5)
			if err != nil || got[0] != 7 {
				t.Errorf("first TryRecv = %v, %v; want in-flight delivery", got, err)
			}
			if _, err := c.TryRecv(1, 6); err == nil {
				t.Errorf("second TryRecv succeeded, want RankFailedError")
			}
		} else {
			c.Send(0, []float64{7}, 5) // op 0: delivered
			c.Send(0, []float64{8}, 6) // op 1: killed before this
		}
	})
}

func TestCollectiveDetectsDeadPartner(t *testing.T) {
	// Kill one leaf; the allreduce's tree parent must fail with a typed
	// error naming the dead partner, and no rank may hang: the ranks cut
	// off behind it give up through the plan's RecvTimeout.
	plan := NewFaultPlan(1).Kill(3, 0)
	plan.RecvTimeout = 50 * time.Millisecond
	w := faultWorld(4, plan)
	errs := make([]error, 4)
	var mu sync.Mutex
	w.Run(func(ctx *Ctx) {
		defer func() {
			p := recover()
			err, ok := p.(error)
			if !ok && p != nil {
				panic(p) // the kill sentinel unwinds the dead rank
			}
			mu.Lock()
			errs[ctx.Rank()] = err
			mu.Unlock()
		}()
		WorldComm(ctx).Allreduce([]float64{float64(ctx.Rank())}, OpSum)
	})
	var rf *RankFailedError
	if !errors.As(errs[2], &rf) || rf.Rank != 3 {
		t.Errorf("rank 2 (parent of dead 3) error = %v, want RankFailedError{3}", errs[2])
	}
}

func TestRecvTimeoutFiresTyped(t *testing.T) {
	plan := NewFaultPlan(1)
	plan.RecvTimeout = 30 * time.Millisecond
	w := faultWorld(2, plan)
	var got error
	var mu sync.Mutex
	w.Run(func(ctx *Ctx) {
		if ctx.Rank() != 0 {
			return // sends nothing, and is never dead
		}
		_, err := WorldComm(ctx).TryRecv(1, 5)
		mu.Lock()
		got = err
		mu.Unlock()
	})
	var te *TimeoutError
	if !errors.As(got, &te) {
		t.Fatalf("TryRecv error = %v, want TimeoutError", got)
	}
	if te.Rank != 1 || te.Tag != 5 {
		t.Errorf("TimeoutError = %+v", *te)
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	// The same probabilistic plan on two fresh worlds must fire the exact
	// same faults, independent of goroutine scheduling.
	mk := func() FaultCounts {
		plan := NewFaultPlan(99).
			Drop(AnyRank, AnyRank, AnyTag, 0.3, 0).
			Delay(AnyRank, AnyRank, AnyTag, 0.5, 1e-4, 0)
		// A drop-exhausted send leaves its receiver with nothing to
		// match; the plan timeout turns that into a typed error instead
		// of a deadlock.
		plan.RecvTimeout = 250 * time.Millisecond
		w := faultWorld(8, plan)
		w.Run(func(ctx *Ctx) {
			c := WorldComm(ctx)
			for round := 0; round < 10; round++ {
				// Ring exchange: everyone sends to the next rank.
				next := (ctx.Rank() + 1) % c.Size()
				prev := (ctx.Rank() + c.Size() - 1) % c.Size()
				if err := c.TrySend(next, []float64{1}, round); err != nil {
					continue
				}
				_, _ = c.TryRecv(prev, round)
			}
		})
		return w.FaultCounts()
	}
	a, b := mk(), mk()
	if a != b {
		t.Errorf("fault counts differ across identical runs: %+v vs %+v", a, b)
	}
	if a.Drops == 0 || a.Delays == 0 {
		t.Errorf("plan injected nothing: %+v", a)
	}
}

func TestNilPlanIsNoop(t *testing.T) {
	// WithFaults(nil) must behave exactly like no option at all: same
	// counters, same virtual time.
	run := func(opts ...Option) (CounterSnapshot, float64) {
		w := NewWorld(grid.SmallTestGrid(2, 2, 1), append(opts, Virtual())...)
		w.Run(func(ctx *Ctx) {
			c := WorldComm(ctx)
			c.Allreduce([]float64{float64(ctx.Rank())}, OpSum)
		})
		return w.Counters(), w.MaxClock()
	}
	c0, t0 := run()
	c1, t1 := run(WithFaults(nil))
	if c0 != c1 || t0 != t1 {
		t.Errorf("WithFaults(nil) changed behaviour: %+v/%v vs %+v/%v", c0, t0, c1, t1)
	}
}

func TestPlanFromFailureRates(t *testing.T) {
	g := grid.SmallTestGrid(2, 4, 1)
	for i := range g.Clusters {
		g.Clusters[i].FailureRate = 1e-3 // absurdly flaky, to force kills
	}
	p := PlanFromFailureRates(g, 7, 3600, 100)
	if len(p.Kills()) == 0 {
		t.Fatalf("high failure rate produced no kills")
	}
	q := PlanFromFailureRates(g, 7, 3600, 100)
	if len(p.Kills()) != len(q.Kills()) {
		t.Errorf("PlanFromFailureRates not deterministic: %v vs %v", p.Kills(), q.Kills())
	}
	// Zero rate ⇒ no kills.
	for i := range g.Clusters {
		g.Clusters[i].FailureRate = 0
	}
	if z := PlanFromFailureRates(g, 7, 3600, 100); len(z.Kills()) != 0 {
		t.Errorf("zero failure rate produced kills: %v", z.Kills())
	}
}

func TestTracedWorldRecordsFaults(t *testing.T) {
	// Fault-layer activity must be first-class in the trace: delays,
	// drops, the retransmits they force, and rank kills all appear as
	// fault events on the rank that experienced them, and a metrics
	// registry attached to the world tallies the same counts.
	reg := telemetry.NewRegistry()
	plan := NewFaultPlan(1).
		Delay(0, 1, 5, 1.0, 10e-3, 1).
		Drop(0, 1, 5, 1.0, 2). // first two attempts dropped, third delivers
		Kill(2, 0)
	w := faultWorld(3, plan, Virtual(), Traced(), WithMetrics(reg))
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		switch ctx.Rank() {
		case 0:
			if err := c.TrySend(1, []float64{1}, 5); err != nil {
				t.Errorf("TrySend = %v, want delivery after retries", err)
			}
		case 1:
			if _, err := c.TryRecv(0, 5); err != nil {
				t.Errorf("TryRecv = %v", err)
			}
		case 2:
			// Killed before the receive even starts.
			if _, err := c.TryRecv(0, 5); err == nil {
				t.Errorf("rank 2 survived a scheduled kill")
			}
		}
	})
	byKind := map[string]int{}
	tr := w.Trace()
	for r := 0; r < w.Size(); r++ {
		for _, s := range tr.Track(r) {
			if s.Kind == telemetry.EventFault {
				byKind[s.Fault]++
			}
		}
	}
	want := map[string]int{"delay": 1, "drop": 2, "retransmit": 2, "kill": 1}
	for kind, n := range want {
		if byKind[kind] != n {
			t.Errorf("trace has %d %q fault events, want %d (all: %v)", byKind[kind], kind, n, byKind)
		}
	}
	fc := w.FaultCounts()
	if fc.Drops != 2 || fc.Delays != 1 || fc.Retransmits != 2 || fc.Kills != 1 {
		t.Errorf("FaultCounts = %+v", fc)
	}
	for name, wantV := range map[string]float64{
		"mpi.fault.drops": 2, "mpi.fault.delays": 1,
		"mpi.fault.retransmits": 2, "mpi.fault.kills": 1,
	} {
		if got := reg.Counter(name).Value(); got != wantV {
			t.Errorf("metric %s = %g, want %g", name, got, wantV)
		}
	}
}
