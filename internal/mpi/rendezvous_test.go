package mpi

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/telemetry"
)

// The event engine resolves a cost-only allreduce as one rendezvous
// instead of walking its messages. These tests run one program on a
// cost-only world (the rendezvous) and on a Virtual() data world (the
// goroutine engine, which walks and combines real messages) and require
// every observable to agree bit for bit, then pin the rendezvous's
// failure paths: poison and a member that never arrives.

// rendezvousProgram puts a comm through what a factorization does to it:
// unequal clocks on entry, point-to-point traffic before and after, and
// allreduces of several lengths, back to back and between kernels.
func rendezvousProgram(c *Comm) {
	ctx := c.Ctx()
	n, r := c.Size(), c.Rank()
	payload := func(k int) []float64 {
		if ctx.HasData() {
			return make([]float64, k)
		}
		return nil
	}
	ctx.Kernel("compute", float64(2e5*(1+(r*7)%5)), 32, nil)
	c.Send((r+1)%n, payload(16), 1, 16)
	c.Recv((r+n-1)%n, 1)
	for i, k := range []int{2, 1, 40} {
		c.Allreduce(make([]float64, k), OpSum)
		if i == 1 {
			ctx.Kernel("compute", float64(1e5*(r%3)), 32, nil)
		}
	}
	c.Send((r+n-1)%n, payload(8), 2, 8)
	c.Recv((r+1)%n, 2)
	c.AllreduceOverlap(make([]float64, 3), OpMax, nil)
}

// rendezvousGrid is the world shape of a comm size under test: a
// WorldComm case runs on a grid of exactly n ranks, a Sub case on 64
// ranks over four sites, with the n members strided across sites and
// nodes in a scrambled order.
func rendezvousGrid(n int, sub bool) *grid.Grid {
	if sub {
		return grid.SmallTestGrid(4, 8, 2)
	}
	switch n {
	case 2:
		return grid.SmallTestGrid(2, 1, 1)
	case 8:
		return grid.SmallTestGrid(2, 2, 2)
	case 64:
		return grid.SmallTestGrid(4, 8, 2)
	}
	return grid.SmallTestGrid(1, n, 1)
}

// rendezvousComm returns the comm under test for ctx, or nil when ctx's
// rank is not a member.
func rendezvousComm(ctx *Ctx, n int, sub bool) *Comm {
	wc := WorldComm(ctx)
	if !sub {
		return wc
	}
	members := make([]int, n)
	for i := range members {
		members[i] = (7*i + 3) % wc.Size()
	}
	for _, m := range members {
		if m == ctx.Rank() {
			return wc.Sub(members, "rv")
		}
	}
	return nil
}

// rendezvousOutcome is everything the two worlds must agree on.
type rendezvousOutcome struct {
	clocks  []uint64 // math.Float64bits of each rank's final clock
	waits   [][3]uint64
	ranks   []CounterSnapshot
	total   CounterSnapshot
	sites   telemetry.CommMatrix
	spans   [][]telemetry.Span
	metrics []telemetry.MetricValue
}

func runRendezvous(g *grid.Grid, n int, sub, costOnly, traced, metrics bool) (*World, rendezvousOutcome) {
	opts := []Option{Virtual()}
	if costOnly {
		opts = []Option{CostOnly()}
	}
	if traced {
		opts = append(opts, Traced())
	}
	var reg *telemetry.Registry
	if metrics {
		reg = telemetry.NewRegistry()
		opts = append(opts, WithMetrics(reg))
	}
	w := NewWorld(g, opts...)
	w.Run(func(ctx *Ctx) {
		if c := rendezvousComm(ctx, n, sub); c != nil {
			rendezvousProgram(c)
		}
	})
	var out rendezvousOutcome
	for r := 0; r < w.n; r++ {
		out.clocks = append(out.clocks, math.Float64bits(w.clocks[r]))
		var wt [3]uint64
		for k, v := range w.wait[r] {
			wt[k] = math.Float64bits(v)
		}
		out.waits = append(out.waits, wt)
		out.ranks = append(out.ranks, w.rankCounts[r])
		if traced {
			out.spans = append(out.spans, w.trace.Track(r))
		}
	}
	out.total, out.sites = w.Counters(), w.CommMatrix()
	if reg != nil {
		out.metrics = reg.Snapshot()
	}
	return w, out
}

func TestAllreduceRendezvousMatchesMessageWalk(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 13, 64} {
		for _, sub := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				for _, metrics := range []bool{false, true} {
					name := fmt.Sprintf("n=%d/sub=%v/traced=%v/metrics=%v", n, sub, traced, metrics)
					t.Run(name, func(t *testing.T) {
						g := rendezvousGrid(n, sub)
						ev, got := runRendezvous(g, n, sub, true, traced, metrics)
						walked, want := runRendezvous(g, n, sub, false, traced, metrics)
						e, ok := ev.eng.(*eventEngine)
						if !ok || len(e.rvs) != 1 || walked.EventDriven() {
							t.Fatalf("cost-only world did not meet at one rendezvous (event %v) or the data world is event-driven (%v)",
								ok, walked.EventDriven())
						}
						if msgs := 4 * 2 * int64(n-1); e.stats.Deliveries != msgs+2*int64(n) {
							t.Errorf("event engine delivered %d messages, want %d allreduce + %d point-to-point",
								e.stats.Deliveries, msgs, 2*n)
						}
						for r := range want.clocks {
							if got.clocks[r] != want.clocks[r] || got.waits[r] != want.waits[r] {
								t.Errorf("rank %d: clock %x waits %x, message walk %x %x",
									r, got.clocks[r], got.waits[r], want.clocks[r], want.waits[r])
							}
							if got.ranks[r] != want.ranks[r] {
								t.Errorf("rank %d counters %+v, message walk %+v", r, got.ranks[r], want.ranks[r])
							}
							if traced && !reflect.DeepEqual(got.spans[r], want.spans[r]) {
								t.Errorf("rank %d spans differ:\n rendezvous %+v\n walk       %+v", r, got.spans[r], want.spans[r])
							}
						}
						if got.total != want.total {
							t.Errorf("world counters %+v, message walk %+v", got.total, want.total)
						}
						if !reflect.DeepEqual(got.sites, want.sites) {
							t.Errorf("site matrix %+v, message walk %+v", got.sites, want.sites)
						}
						if !reflect.DeepEqual(got.metrics, want.metrics) {
							t.Errorf("metrics %+v, message walk %+v", got.metrics, want.metrics)
						}
					})
				}
			}
		}
	}
}

// TestAllreduceRendezvousPoison: a member whose body panics poisons the
// rendezvous. Members parked in it wake and panic like a blocked
// receiver, members that arrive afterwards panic on entry, Run re-raises
// the original panic, and no rank outlives the world.
func TestAllreduceRendezvousPoison(t *testing.T) {
	for _, culprit := range []int{0, 3} { // first dispatched, or after 0–2 parked
		t.Run(fmt.Sprintf("rank%d", culprit), func(t *testing.T) {
			before := runtime.NumGoroutine()
			w := testWorld(4, CostOnly())
			seen := make([]any, 4)
			func() {
				defer func() {
					if p, _ := recover().(string); p != fmt.Sprintf("mpi: rank %d panicked: boom", culprit) {
						t.Errorf("Run panicked with %q", p)
					}
				}()
				w.Run(func(ctx *Ctx) {
					if ctx.Rank() == culprit {
						panic("boom")
					}
					defer func() { seen[ctx.Rank()] = recover() }()
					WorldComm(ctx).Allreduce(make([]float64, 4), OpSum)
				})
			}()
			for r, p := range seen {
				if r != culprit && p != poisonedRecv {
					t.Errorf("rank %d recovered %v, want %q", r, p, poisonedRecv)
				}
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("goroutines %d after Run, %d before", after, before)
			}
		})
	}
}

// TestAllreduceRendezvousMissingMember: a member that never calls the
// allreduce leaves the others parked, and the scheduler reports them as
// a deadlock without leaking a rank.
func TestAllreduceRendezvousMissingMember(t *testing.T) {
	before := runtime.NumGoroutine()
	w := testWorld(4, CostOnly())
	func() {
		defer func() {
			if p, _ := recover().(string); !strings.Contains(p, "deadlock") || !strings.Contains(p, "[0 1 3]") {
				t.Errorf("Run panicked with %q, want a deadlock of ranks [0 1 3]", p)
			}
		}()
		w.Run(func(ctx *Ctx) {
			if ctx.Rank() != 2 {
				WorldComm(ctx).Allreduce(make([]float64, 4), OpSum)
			}
		})
	}()
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines %d after Run, %d before", after, before)
	}
}
