package mpi

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/telemetry"
)

// testWorld returns a real-mode world of n ranks on a 1-proc-per-node
// single cluster (all intra-cluster links).
func testWorld(n int, opts ...Option) *World {
	return NewWorld(grid.SmallTestGrid(1, n, 1), opts...)
}

func TestSendRecvBasic(t *testing.T) {
	w := testWorld(2)
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		if ctx.Rank() == 0 {
			c.Send(1, []float64{1, 2, 3}, 7)
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("recv = %v", got)
			}
		}
	})
}

func TestRecvMatchesByTag(t *testing.T) {
	w := testWorld(2)
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		if ctx.Rank() == 0 {
			c.Send(1, []float64{1}, 1)
			c.Send(1, []float64{2}, 2)
		} else {
			// Receive out of order: tag 2 first.
			if got := c.Recv(0, 2); got[0] != 2 {
				t.Errorf("tag 2 got %v", got)
			}
			if got := c.Recv(0, 1); got[0] != 1 {
				t.Errorf("tag 1 got %v", got)
			}
		}
	})
}

func TestRecvFIFOPerSenderTag(t *testing.T) {
	w := testWorld(2)
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		if ctx.Rank() == 0 {
			for i := 0; i < 5; i++ {
				c.Send(1, []float64{float64(i)}, 9)
			}
		} else {
			for i := 0; i < 5; i++ {
				if got := c.Recv(0, 9); got[0] != float64(i) {
					t.Errorf("message %d out of order: %v", i, got)
				}
			}
		}
	})
}

func TestSendToSelfPanics(t *testing.T) {
	w := testWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Run(func(ctx *Ctx) {
		if ctx.Rank() == 0 {
			WorldComm(ctx).Send(0, nil, 0)
		}
	})
}

func TestRunPropagatesPanic(t *testing.T) {
	w := testWorld(3)
	defer func() {
		if recover() == nil {
			t.Fatal("panic not propagated")
		}
	}()
	w.Run(func(ctx *Ctx) {
		if ctx.Rank() == 1 {
			panic("boom")
		}
		// Other ranks block receiving from rank 1 and must be unblocked
		// by the poison mechanism rather than deadlocking.
		if ctx.Rank() == 2 {
			defer func() { recover() }() // swallow the poison panic
			WorldComm(ctx).Recv(1, 0)
		}
	})
}

// TestEventDeadlockLeaksNoRank: on the event engine a cycle of blocked
// receives is a deadlock panic, and every parked rank is unwound past
// Run's rank wrapper before it reaches the caller — no rank goroutine
// outlives the world.
func TestEventDeadlockLeaksNoRank(t *testing.T) {
	before := runtime.NumGoroutine()
	w := testWorld(4, CostOnly())
	func() {
		defer func() {
			if p, _ := recover().(string); !strings.Contains(p, "deadlock") {
				t.Fatalf("panic %q, want a deadlock report", p)
			}
		}()
		w.Run(func(ctx *Ctx) {
			c := WorldComm(ctx)
			c.Recv((c.Rank()+1)%c.Size(), 0)
		})
	}()
	if !w.EventDriven() {
		t.Fatal("cost-only world not on the event engine")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines %d after the deadlocked Run, %d before", after, before)
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 16} {
		for root := 0; root < n; root += max(1, n/3) {
			w := testWorld(n)
			var bad atomic.Int32
			rootVal := []float64{3.25, -1, float64(root)}
			w.Run(func(ctx *Ctx) {
				c := WorldComm(ctx)
				data := make([]float64, 3)
				if ctx.Rank() == root {
					copy(data, rootVal)
				}
				c.Bcast(root, data)
				for i := range data {
					if data[i] != rootVal[i] {
						bad.Add(1)
					}
				}
			})
			if bad.Load() != 0 {
				t.Fatalf("n=%d root=%d: %d wrong elements", n, root, bad.Load())
			}
		}
	}
}

func TestReduceDoesNotMutateInput(t *testing.T) {
	// The allreduce's reduce phase accumulates into a private copy: no
	// rank's input slice — forwarded by reference up the tree — changes.
	w := testWorld(5)
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		in := []float64{float64(ctx.Rank())}
		c.Allreduce(in, OpSum)
		c.AllreduceOverlap(in, OpSum, func() {})
		if in[0] != float64(ctx.Rank()) {
			t.Errorf("rank %d input mutated to %v", ctx.Rank(), in)
		}
	})
}

func TestAllreduce(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		w := testWorld(n)
		w.Run(func(ctx *Ctx) {
			c := WorldComm(ctx)
			out := c.Allreduce([]float64{1, float64(ctx.Rank())}, OpSum)
			if out[0] != float64(n) {
				t.Errorf("n=%d rank %d: allreduce = %v", n, ctx.Rank(), out)
			}
		})
	}
}

func TestAllreduceMax(t *testing.T) {
	w := testWorld(6)
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		out := c.Allreduce([]float64{float64(ctx.Rank())}, OpMax)
		if out[0] != 5 {
			t.Errorf("max = %v", out)
		}
	})
}

func TestAllreduceOverlapMatchesAllreduce(t *testing.T) {
	// Same values, same message count and volume as the plain allreduce,
	// on power-of-two and ragged sizes; the spare hook must run on every
	// non-root rank.
	for _, n := range []int{2, 5, 8} {
		wantMsgs := func(w *World) int64 { return w.Counters().Total().Msgs }
		plain := testWorld(n)
		plain.Run(func(ctx *Ctx) {
			c := WorldComm(ctx)
			got := c.Allreduce([]float64{float64(ctx.Rank() + 1)}, OpSum)
			if want := float64(n * (n + 1) / 2); got[0] != want {
				t.Errorf("n=%d rank %d: Allreduce = %g, want %g", n, ctx.Rank(), got[0], want)
			}
		})
		var spared sync.Map
		over := testWorld(n)
		over.Run(func(ctx *Ctx) {
			c := WorldComm(ctx)
			got := c.AllreduceOverlap([]float64{float64(ctx.Rank() + 1)}, OpSum,
				func() { spared.Store(ctx.Rank(), true) })
			if want := float64(n * (n + 1) / 2); got[0] != want {
				t.Errorf("n=%d rank %d: AllreduceOverlap = %g, want %g", n, ctx.Rank(), got[0], want)
			}
		})
		if wantMsgs(plain) != wantMsgs(over) {
			t.Errorf("n=%d: message counts differ: Allreduce %d, AllreduceOverlap %d",
				n, wantMsgs(plain), wantMsgs(over))
		}
		// Every non-root rank blocks on the bcast parent, so all of them
		// must have run the spare hook.
		for r := 1; r < n; r++ {
			if _, ok := spared.Load(r); !ok {
				t.Errorf("n=%d: spare hook never ran on rank %d", n, r)
			}
		}
	}
}

func TestOverlapHidesWait(t *testing.T) {
	// The transport is eager: a message is in flight from the moment it
	// is sent. Compute charged before the blocking receive therefore
	// covers part of the flight time, and the receiver pays only the
	// rest as wait — the property overlapped TSQR's schedule relies on.
	// Same traffic, same compute; only the order on the receiver moves.
	const flops = 1e6
	run := func(computeFirst bool) (wait, clock float64) {
		w := testWorld(2, Virtual())
		w.Run(func(ctx *Ctx) {
			c := WorldComm(ctx)
			if ctx.Rank() == 0 {
				c.Send(1, make([]float64, 1<<15), 1)
				return
			}
			if computeFirst {
				ctx.Kernel("compute", flops, 8, nil)
				c.Recv(0, 1)
			} else {
				c.Recv(0, 1)
				ctx.Kernel("compute", flops, 8, nil)
			}
		})
		b := w.BreakdownOf(1)
		return b.Wait[0] + b.Wait[1] + b.Wait[2], w.MaxClock()
	}
	blockWait, blockClock := run(false)
	overlapWait, overlapClock := run(true)
	if blockWait <= 0 {
		t.Fatalf("receive-first run recorded no wait (wait=%g)", blockWait)
	}
	if overlapWait >= blockWait {
		t.Errorf("compute-first wait %g not below receive-first wait %g", overlapWait, blockWait)
	}
	if overlapClock >= blockClock {
		t.Errorf("compute-first clock %g not below receive-first clock %g", overlapClock, blockClock)
	}
}

func TestSub(t *testing.T) {
	w := testWorld(5)
	w.Run(func(ctx *Ctx) {
		if ctx.Rank() == 0 || ctx.Rank() == 4 {
			return // not in the subgroup
		}
		c := WorldComm(ctx)
		sub := c.Sub([]int{3, 1, 2}, "g")
		if sub.Size() != 3 {
			t.Errorf("sub size %d", sub.Size())
		}
		if ctx.Rank() == 3 && sub.Rank() != 0 {
			t.Errorf("rank 3 should lead, got %d", sub.Rank())
		}
		out := sub.Allreduce([]float64{1}, OpSum)
		if out[0] != 3 {
			t.Errorf("sub allreduce = %v", out)
		}
	})
}

func TestVirtualClockPointToPoint(t *testing.T) {
	// Two ranks on different clusters of a 2-cluster grid; one message
	// must cost inter-cluster latency + bytes/bandwidth.
	g := grid.SmallTestGrid(2, 1, 1)
	w := NewWorld(g, Virtual())
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		if ctx.Rank() == 0 {
			c.Send(1, make([]float64, 1000), 0)
		} else {
			c.Recv(0, 0)
			link := g.Inter[0][1]
			want := link.TransferTime(8000)
			if math.Abs(ctx.Now()-want) > 1e-12 {
				t.Errorf("virtual clock %g want %g", ctx.Now(), want)
			}
		}
	})
	if w.MaxClock() <= 0 {
		t.Fatal("MaxClock must be positive after virtual run")
	}
}

func TestVirtualClockCharge(t *testing.T) {
	g := grid.SmallTestGrid(1, 1, 1)
	w := NewWorld(g, Virtual())
	w.Run(func(ctx *Ctx) {
		rate := g.KernelGflops(0, 64) * 1e9
		ctx.Kernel("compute", rate, 64, nil) // exactly one second of work
		if math.Abs(ctx.Now()-1) > 1e-12 {
			t.Errorf("Now = %g want 1", ctx.Now())
		}
		ctx.Sleep(0.5)
		if math.Abs(ctx.Now()-1.5) > 1e-12 {
			t.Errorf("Now = %g want 1.5", ctx.Now())
		}
	})
}

func TestVirtualDeterminism(t *testing.T) {
	run := func() float64 {
		g := grid.SmallTestGrid(2, 2, 2)
		w := NewWorld(g, Virtual())
		w.Run(func(ctx *Ctx) {
			c := WorldComm(ctx)
			for iter := 0; iter < 10; iter++ {
				c.Allreduce([]float64{float64(ctx.Rank())}, OpSum)
				ctx.Kernel("compute", 1e6, 64, nil)
			}
		})
		return w.MaxClock()
	}
	t1 := run()
	for i := 0; i < 5; i++ {
		if t2 := run(); t2 != t1 {
			t.Fatalf("virtual time not deterministic: %g vs %g", t1, t2)
		}
	}
}

func TestCostOnlyMode(t *testing.T) {
	g := grid.SmallTestGrid(1, 2, 1)
	w := NewWorld(g, CostOnly())
	w.Run(func(ctx *Ctx) {
		if ctx.HasData() {
			t.Error("CostOnly must report HasData == false")
		}
		if !ctx.Virtual() {
			t.Error("CostOnly implies Virtual")
		}
		c := WorldComm(ctx)
		if ctx.Rank() == 0 {
			c.Send(1, nil, 3, 512)
		} else {
			if got := c.Recv(0, 3); got != nil {
				t.Errorf("a sized nil send delivered data %v", got)
			}
			if ctx.Now() <= 0 {
				t.Error("a sized nil send must still cost time")
			}
		}
	})
	snap := w.Counters()
	if snap.Total().Msgs != 1 || snap.Total().Bytes != 4096 {
		t.Fatalf("counters = %+v", snap.Total())
	}
}

// TestSizedSend: a send that states its length is checked against the
// payload. On a data world a payload shorter or longer than n panics with
// the tag and both sizes; on a cost-only world a nil payload is priced at
// 8n bytes, and the collectives are priced by the length each rank
// passes, whether a broadcast forwards the slice or an allreduce ships
// a sized nil payload.
func TestSizedSend(t *testing.T) {
	g := grid.SmallTestGrid(1, 2, 1)
	for _, sent := range []int{3, 5} {
		w := NewWorld(g, Virtual())
		var msg any
		func() {
			defer func() { msg = recover() }()
			w.Run(func(ctx *Ctx) {
				if ctx.Rank() == 0 {
					WorldComm(ctx).Send(1, make([]float64, sent), 7, 4)
				}
			})
		}()
		want := fmt.Sprintf("tag 7 states 4 floats but carries %d", sent)
		if s, _ := msg.(string); !strings.Contains(s, want) {
			t.Errorf("data world, %d floats stated as 4: panic %v, want it to name %q", sent, msg, want)
		}
	}

	w := NewWorld(g, CostOnly())
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		if ctx.Rank() == 0 {
			c.Send(1, nil, 2, 10)
		} else if got := c.Recv(0, 2); got != nil {
			t.Errorf("cost-only sized send delivered %v", got)
		}
		c.Bcast(0, make([]float64, 3))
		c.Allreduce(make([]float64, 2), OpSum)
	})
	// 80 bytes for the sized send; one 24-byte broadcast message and one
	// 16-byte message each way for the two-rank allreduce.
	if got := w.Counters().Total(); got.Msgs != 4 || got.Bytes != 80+24+16+16 {
		t.Fatalf("cost-only counters = %+v", got)
	}

	w = NewWorld(g, CostOnly())
	var msg any
	func() {
		defer func() { msg = recover() }()
		w.Run(func(ctx *Ctx) {
			if ctx.Rank() == 0 {
				WorldComm(ctx).Send(1, make([]float64, 2), 9, 10)
			}
		})
	}()
	if s, _ := msg.(string); !strings.Contains(s, "tag 9 states 10 floats but carries 2") {
		t.Errorf("cost-only world, non-nil payload of the wrong length: panic %v", msg)
	}
}

// TestKernelRunsBodyOnDataWorldsOnly: Kernel runs its body on a data
// world, never on a cost-only one nor on a rank killed at that point, and
// charges the same flops either way.
func TestKernelRunsBodyOnDataWorldsOnly(t *testing.T) {
	g := grid.SmallTestGrid(1, 1, 1)
	for _, opt := range []Option{Virtual(), CostOnly()} {
		w := NewWorld(g, opt)
		ran := 0
		w.Run(func(ctx *Ctx) {
			ctx.Kernel("k", 100, 8, func() { ran++ })
			ctx.Kernel("k", 50, 8, nil)
			if !ctx.HasData() && ran != 0 || ctx.HasData() && ran != 1 {
				t.Errorf("HasData=%v: body ran %d times", ctx.HasData(), ran)
			}
		})
		if got := w.Counters().Flops; got != 150 {
			t.Errorf("flops = %g, want 150", got)
		}
	}
	w := NewWorld(g, Virtual(), WithFaults(NewFaultPlan(1).Kill(0, 1)))
	ran := 0
	func() {
		defer func() { recover() }()
		w.Run(func(ctx *Ctx) {
			ctx.Kernel("k", 1, 8, func() { ran++ })
			ctx.Kernel("k", 1, 8, func() { ran += 10 })
		})
	}()
	if ran != 1 || !w.RankDead(0) {
		t.Fatalf("killed before its second kernel: body sum %d (want 1), dead %v", ran, w.RankDead(0))
	}
}

func TestCountersPerClass(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2) // 8 ranks: 0-3 cluster A, 4-7 cluster B
	w := NewWorld(g)
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		switch ctx.Rank() {
		case 0:
			c.Send(1, []float64{1}, 0) // same node
			c.Send(2, []float64{1}, 0) // same cluster, different node
			c.Send(4, []float64{1}, 0) // different cluster
		case 1:
			c.Recv(0, 0)
		case 2:
			c.Recv(0, 0)
		case 4:
			c.Recv(0, 0)
		}
	})
	snap := w.Counters()
	if snap.PerClass[grid.IntraNode].Msgs != 1 ||
		snap.PerClass[grid.IntraCluster].Msgs != 1 ||
		snap.PerClass[grid.InterCluster].Msgs != 1 {
		t.Fatalf("per-class counters wrong: %+v", snap.PerClass)
	}
	if snap.Inter().Bytes != 8 {
		t.Fatalf("inter bytes = %g", snap.Inter().Bytes)
	}
}

// TestWorldCommMatrix: every world counts its site×site traffic, traced
// or not, data or cost-only. The pattern is asymmetric — no entry equals
// its transpose — so a matrix indexed [receiver][sender] fails it.
func TestWorldCommMatrix(t *testing.T) {
	g := grid.SmallTestGrid(3, 1, 2) // sites 0, 1, 2 hold ranks {0,1}, {2,3}, {4,5}
	sends := []struct{ from, to, n, times int }{
		{0, 2, 1, 3}, // site 0 → 1
		{3, 5, 4, 1}, // site 1 → 2
		{1, 0, 2, 2}, // site 0 → 0
		{4, 1, 8, 1}, // site 2 → 0
	}
	wantMsgs := [][]int64{{2, 3, 0}, {0, 0, 1}, {1, 0, 0}}
	wantBytes := [][]float64{{32, 24, 0}, {0, 0, 32}, {64, 0, 0}}
	for mode, opt := range map[string]Option{"data": Virtual(), "cost-only": CostOnly()} {
		w := NewWorld(g, opt)
		w.Run(func(ctx *Ctx) {
			c := WorldComm(ctx)
			for _, s := range sends {
				for i := 0; i < s.times; i++ {
					switch ctx.Rank() {
					case s.from:
						var payload []float64
						if ctx.HasData() {
							payload = make([]float64, s.n)
						}
						c.Send(s.to, payload, i, s.n)
					case s.to:
						c.Recv(s.from, i)
					}
				}
			}
		})
		m := w.CommMatrix()
		if fmt.Sprint(m.Msgs) != fmt.Sprint(wantMsgs) || fmt.Sprint(m.Bytes) != fmt.Sprint(wantBytes) {
			t.Errorf("%s: site matrix msgs %v bytes %v, want %v and %v", mode, m.Msgs, m.Bytes, wantMsgs, wantBytes)
		}
		if fmt.Sprint(m.Names) != "[A B C]" {
			t.Errorf("%s: site names %v", mode, m.Names)
		}
		if msgs, bytes := m.InterSite(); msgs != w.Counters().Inter().Msgs || bytes != w.Counters().Inter().Bytes {
			t.Errorf("%s: off-diagonal %d msgs %g bytes, inter-cluster counters %+v", mode, msgs, bytes, w.Counters().Inter())
		}
		m.Msgs[0][1] = 99
		if w.CommMatrix().Msgs[0][1] != 3 {
			t.Errorf("%s: CommMatrix returned the world's own storage", mode)
		}
	}
}

// TestPlacementMatchesGrid: the world's placement table answers every
// topology query as grid.Place lays ranks out, and a send's link class
// is the one Grid.LinkBetween gives for the pair.
func TestPlacementMatchesGrid(t *testing.T) {
	for _, g := range []*grid.Grid{grid.Grid5000(), grid.SmallTestGrid(3, 2, 2), grid.SyntheticHier([]int{1, 2}, 2, 3)} {
		var class [3]int64
		for r := 1; r < g.Procs(); r++ {
			_, lc := g.LinkBetween(0, r)
			class[lc]++
		}
		w := NewWorld(g, CostOnly())
		w.Run(func(ctx *Ctx) {
			comm, r := WorldComm(ctx), ctx.Rank()
			c, node, _ := g.Place(r)
			for i := 0; i < c; i++ {
				node += g.Clusters[i].Nodes
			}
			if ctx.Cluster() != c || comm.ClusterOf(r) != c || comm.NodeOf(r) != node ||
				comm.ContinentOf(r) != g.Clusters[c].Continent {
				t.Errorf("rank %d placed at cluster %d/%d node %d continent %d, grid says %d, %d, %d",
					r, ctx.Cluster(), comm.ClusterOf(r), comm.NodeOf(r), comm.ContinentOf(r), c, node, g.Clusters[c].Continent)
			}
			if r == 0 {
				for to := 1; to < comm.Size(); to++ {
					comm.Send(to, nil, 0, 1)
				}
			} else {
				comm.Recv(0, 0)
			}
		})
		for lc, n := range class {
			if got := w.Counters().PerClass[lc].Msgs; got != n {
				t.Errorf("%d clusters: %d %v messages, Grid.LinkBetween says %d", len(g.Clusters), got, grid.LinkClass(lc), n)
			}
		}
	}
}

func TestRealModeFlopCounterOnly(t *testing.T) {
	w := testWorld(1)
	w.Run(func(ctx *Ctx) {
		ctx.Kernel("compute", 123, 4, nil)
		if ctx.Now() > 1 { // wall clock, but charge must not add to it
			t.Error("real-mode Now unexpectedly large")
		}
	})
	if w.Counters().Flops != 123 {
		t.Fatalf("flops = %g", w.Counters().Flops)
	}
	if w.MaxClock() != 0 {
		t.Fatal("real mode must keep virtual clocks at zero")
	}
}

func TestBcastVirtualUsesTreeDepth(t *testing.T) {
	// On a uniform single cluster of 8, a bcast's completion time must be
	// ~3 link times (binomial depth), not 7 (flat).
	g := grid.SmallTestGrid(1, 8, 1)
	w := NewWorld(g, Virtual())
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		c.Bcast(0, make([]float64, 1))
	})
	link := g.Inter[0][0]
	per := link.TransferTime(8)
	got := w.MaxClock()
	if got > 3.5*per || got < 2.5*per {
		t.Fatalf("bcast depth: %g want ≈ 3·%g", got, per)
	}
}

func TestTimeBreakdown(t *testing.T) {
	g := grid.SmallTestGrid(2, 1, 1)
	w := NewWorld(g, Virtual())
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		if ctx.Rank() == 0 {
			rate := g.KernelGflops(0, 64) * 1e9
			ctx.Kernel("compute", rate/2, 64, nil) // 0.5 s of compute
			c.Send(1, make([]float64, 10), 0)
		} else {
			c.Recv(0, 0) // waits ~0.5 s + link time, inter-cluster
		}
	})
	b0 := w.BreakdownOf(0)
	if b0.Compute < 0.49 || b0.Compute > 0.51 {
		t.Fatalf("rank 0 compute = %g want 0.5", b0.Compute)
	}
	if b0.Wait != [3]float64{} {
		t.Fatalf("rank 0 should not have waited: %v", b0.Wait)
	}
	b1 := w.BreakdownOf(1)
	if b1.Compute != 0 {
		t.Fatalf("rank 1 compute = %g want 0", b1.Compute)
	}
	interWait := b1.Wait[grid.InterCluster]
	if interWait < 0.5 {
		t.Fatalf("rank 1 inter-cluster wait = %g want > 0.5", interWait)
	}
	if b1.Wait[grid.IntraNode] != 0 || b1.Wait[grid.IntraCluster] != 0 {
		t.Fatalf("wait misattributed: %v", b1.Wait)
	}
	if total := b1.Total(); total != w.MaxClock() {
		t.Fatalf("breakdown total %g != MaxClock %g", total, w.MaxClock())
	}
}

func TestTraceEvents(t *testing.T) {
	g := grid.SmallTestGrid(2, 1, 1)
	w := NewWorld(g, Virtual(), Traced())
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		if ctx.Rank() == 0 {
			ctx.Kernel("compute", g.KernelGflops(0, 64)*1e9/4, 64, nil) // 0.25 s
			c.Send(1, make([]float64, 100), 0)
		} else {
			c.Recv(0, 0)
		}
	})
	tr := w.Trace()
	if tr.Ranks() != 2 {
		t.Fatalf("tracks = %d", tr.Ranks())
	}
	// Rank 0: one compute, one send.
	r0 := tr.Track(0)
	var kinds []telemetry.Kind
	for _, s := range r0 {
		kinds = append(kinds, s.Kind)
	}
	if len(kinds) != 2 || kinds[0] != telemetry.SpanCompute || kinds[1] != telemetry.EventSend {
		t.Fatalf("rank 0 spans: %v", kinds)
	}
	if r0[0].End != 0.25 {
		t.Fatalf("compute end = %g", r0[0].End)
	}
	// Rank 1: one wait, inter-cluster, starting at 0.
	r1 := tr.Track(1)
	if len(r1) != 1 || r1[0].Kind != telemetry.SpanWait {
		t.Fatalf("rank 1 spans: %+v", r1)
	}
	wait := r1[0]
	if wait.Link != telemetry.LinkInterCluster || wait.Start != 0 || wait.End <= 0.25 {
		t.Fatalf("wait span wrong: %+v", wait)
	}
	if wait.Peer != 0 || wait.Bytes != 800 {
		t.Fatalf("wait metadata wrong: %+v", wait)
	}
}

func TestGanttRendering(t *testing.T) {
	g := grid.SmallTestGrid(2, 1, 1)
	w := NewWorld(g, Virtual(), Traced())
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		if ctx.Rank() == 0 {
			ctx.Kernel("compute", g.KernelGflops(0, 64)*1e9, 64, nil) // 1 s compute
			c.Send(1, make([]float64, 10), 0)
		} else {
			c.Recv(0, 0)
		}
	})
	out := w.Gantt(20)
	if !strings.Contains(out, "rank   0 |####################|") {
		t.Fatalf("rank 0 row should be all compute:\n%s", out)
	}
	if !strings.Contains(out, "rank   1 |!!!!!!!!!!!!!!!!!!!!|") {
		t.Fatalf("rank 1 row should be all inter-cluster wait:\n%s", out)
	}
}

func TestGanttDisabled(t *testing.T) {
	w := testWorld(1, Virtual())
	w.Run(func(ctx *Ctx) {})
	if !strings.Contains(w.Gantt(10), "disabled") {
		t.Fatal("untraced world should say so")
	}
}

func TestTraceOffByDefault(t *testing.T) {
	g := grid.SmallTestGrid(1, 2, 1)
	w := NewWorld(g, Virtual())
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		if ctx.Rank() == 0 {
			c.Send(1, []float64{1}, 0)
		} else {
			c.Recv(0, 0)
		}
	})
	if w.Trace() != nil {
		t.Fatal("spans recorded without Traced()")
	}
}

// TestStressRandomTraffic hammers the mailbox with a deterministic
// pseudo-random exchange pattern across many rounds and tags, verifying
// payload integrity and virtual-time determinism.
func TestStressRandomTraffic(t *testing.T) {
	g := grid.SmallTestGrid(4, 2, 2)
	run := func() float64 {
		w := NewWorld(g, Virtual())
		w.Run(func(ctx *Ctx) {
			c := WorldComm(ctx)
			p := ctx.Size()
			me := ctx.Rank()
			const rounds = 120
			for round := 0; round < rounds; round++ {
				// Deterministic pairing: me exchanges with partner
				// derived from the round; both sides agree.
				stride := 1 + round%(p-1)
				dst := (me + stride) % p
				src := (me - stride + p) % p
				tag := 100 + round
				payload := []float64{float64(me), float64(round)}
				c.Send(dst, payload, tag)
				got := c.Recv(src, tag)
				if int(got[0]) != src || int(got[1]) != round {
					t.Errorf("round %d: got %v from %d", round, got, src)
					return
				}
				if round%10 == 0 {
					c.Allreduce([]float64{1}, OpSum)
				}
			}
		})
		return w.MaxClock()
	}
	t1 := run()
	t2 := run()
	if t1 != t2 || t1 <= 0 {
		t.Fatalf("stress run not deterministic: %g vs %g", t1, t2)
	}
}

// TestDup: a duplicated communicator has the same members but a
// disjoint tag namespace — the same (peer, tag) pair on parent and dup
// never cross-matches, which is what lets a long-lived stream context
// retry rounds without aliasing stale messages.
func TestDup(t *testing.T) {
	w := testWorld(2)
	w.Run(func(ctx *Ctx) {
		c := WorldComm(ctx)
		d := c.Dup("stream")
		if d.Size() != c.Size() || d.Rank() != c.Rank() {
			t.Errorf("dup shape %d/%d, want %d/%d", d.Size(), d.Rank(), c.Size(), c.Rank())
		}
		if ctx.Rank() == 0 {
			// Same tag on both paths; each must match its own namespace.
			d.Send(1, []float64{2}, 7)
			c.Send(1, []float64{1}, 7)
		} else {
			if got := c.Recv(0, 7); got[0] != 1 {
				t.Errorf("parent recv = %v, want [1]", got)
			}
			if got := d.Recv(0, 7); got[0] != 2 {
				t.Errorf("dup recv = %v, want [2]", got)
			}
		}
	})
}
