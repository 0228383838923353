package mpi

import (
	"reflect"
	"strings"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/telemetry"
)

// ringWorkload is a deterministic mixed span stream: every rank charges
// n kernels and even/odd pairs exchange one message per iteration, so
// tracks hold compute, send and wait/recv spans in program order.
func ringWorkload(n int) func(*Ctx) {
	return func(ctx *Ctx) {
		c := WorldComm(ctx)
		for i := 0; i < n; i++ {
			ctx.Kernel("k", 1e6, 64, nil)
			if ctx.Rank()%2 == 0 && ctx.Rank()+1 < ctx.Size() {
				c.Send(ctx.Rank()+1, make([]float64, 8), i)
			} else if ctx.Rank()%2 == 1 {
				c.Recv(ctx.Rank()-1, i)
			}
		}
	}
}

// TestRingTraceBounded4096 is the ISSUE acceptance check: a cost-only
// world at 4096 ranks with ring tracing retains no more spans than the
// configured bound no matter how many it sees.
func TestRingTraceBounded4096(t *testing.T) {
	const perRank = 200
	g := grid.SmallTestGrid(4, 32, 32) // 4096 procs
	cfg := telemetry.RingConfig{Capacity: 16, Head: 4}
	w := NewWorld(g, CostOnly(), TracedRing(cfg))
	if w.Size() != 4096 {
		t.Fatalf("grid size = %d", w.Size())
	}
	w.Run(func(ctx *Ctx) {
		for i := 0; i < perRank; i++ {
			ctx.Kernel("k", 1e6, 64, nil)
		}
	})
	st := w.TraceStats()
	if st.Seen != 4096*perRank {
		t.Fatalf("seen %d, want %d", st.Seen, 4096*perRank)
	}
	bound := int64(4096 * (16 + 4))
	if st.Retained != bound {
		t.Fatalf("retained %d, want bound %d", st.Retained, bound)
	}
	tr := w.Trace()
	if tr.Ranks() != 4096 {
		t.Fatalf("snapshot ranks = %d", tr.Ranks())
	}
	for r := 0; r < 4096; r += 511 {
		if n := len(tr.Track(r)); n != 20 {
			t.Fatalf("rank %d retains %d spans, want 20", r, n)
		}
	}
	if tr.Duration != w.MaxClock() {
		t.Fatalf("snapshot duration %g != MaxClock %g", tr.Duration, w.MaxClock())
	}
}

// TestRingTraceDeterministic: two worlds with the same seed over the
// same virtual-time workload retain identical spans, rank by rank.
func TestRingTraceDeterministic(t *testing.T) {
	cfg := telemetry.RingConfig{Capacity: 32, Head: 4, SampleEvery: 4, Seed: 7}
	mk := func() *World {
		w := NewWorld(grid.SmallTestGrid(2, 2, 2), CostOnly(), TracedRing(cfg))
		w.Run(ringWorkload(100))
		return w
	}
	a, b := mk(), mk()
	sa, sb := a.TraceStats(), b.TraceStats()
	if sa != sb {
		t.Fatalf("stats diverge: %+v vs %+v", sa, sb)
	}
	if sa.Kept >= sa.Seen {
		t.Fatalf("sampling dropped nothing: %+v", sa)
	}
	ta, tb := a.Trace(), b.Trace()
	for r := 0; r < a.Size(); r++ {
		if !reflect.DeepEqual(ta.Track(r), tb.Track(r)) {
			t.Fatalf("rank %d: same seed retained different spans", r)
		}
	}
}

// TestRingTraceTail covers the last-N export on both collector kinds
// and the stats of a fully traced world.
func TestRingTraceTail(t *testing.T) {
	ring := NewWorld(grid.SmallTestGrid(1, 2, 2), CostOnly(),
		TracedRing(telemetry.RingConfig{Capacity: 64, Head: 4}))
	ring.Run(ringWorkload(50))
	tail := ring.TraceTail(5)
	for r := 0; r < ring.Size(); r++ {
		if n := len(tail.Track(r)); n > 5 {
			t.Fatalf("ring tail rank %d holds %d spans", r, n)
		}
	}

	full := NewWorld(grid.SmallTestGrid(1, 2, 2), CostOnly(), Traced())
	full.Run(ringWorkload(50))
	st := full.TraceStats()
	if st.Seen == 0 || st.Seen != st.Kept || st.Kept != st.Retained {
		t.Fatalf("full-trace stats should be seen==kept==retained: %+v", st)
	}
	tail = full.TraceTail(5)
	for r := 0; r < full.Size(); r++ {
		if n := len(tail.Track(r)); n > 5 {
			t.Fatalf("full tail rank %d holds %d spans", r, n)
		}
	}
	if full.TraceTail(0) != full.Trace() {
		t.Fatal("TraceTail(0) on a full trace should return the trace itself")
	}

	if NewWorld(grid.SmallTestGrid(1, 1, 2), Virtual()).TraceTail(5) != nil {
		t.Fatal("untraced world returned a tail")
	}

	// Gantt renders from the ring snapshot rather than reporting disabled.
	if out := ring.Gantt(10); strings.Contains(out, "disabled") {
		t.Fatalf("ring-traced world should render a gantt:\n%s", out)
	}
}
