package telemetry

import (
	"math"
	"strings"
	"testing"
)

// buildDAGTrace hand-builds the 3-rank span DAG used by the critical
// path tests:
//
//	rank 0: compute "a" [0,2] ── send m(0:0) at 2 ──► rank 2, compute [2,3]
//	rank 1: compute "b" [0,1] ── send m(1:0) at 1 ──► rank 2
//	rank 2: compute [0,0.5], wait [0.5,2.5] on m(0:0) (arrives 2.5),
//	        recv m(1:0) without waiting, compute "tail" [2.5,4]
//
// The longest path is rank2.tail ◄ m(0:0) ◄ rank0.a: 2.0 + 1.5 = 3.5 s
// of compute plus the 0.5 s transfer of m(0:0) (inter-site), total 4 s.
func buildDAGTrace() *Trace {
	tr := NewTrace(3)
	tr.Sites = []int{0, 1, 1}
	tr.SiteNames = []string{"alpha", "beta"}

	tr.Add(Span{Rank: 0, Kind: SpanCompute, Name: "a", Start: 0, End: 2, Peer: -1, Link: LinkNone, FlowSeq: -1, Flops: 8e9})
	tr.Add(Span{Rank: 0, Kind: EventSend, Start: 2, End: 2, Peer: 2, Bytes: 800, Tag: 5,
		Link: LinkInterCluster, CrossSite: true, FlowFrom: 0, FlowSeq: 0})
	tr.Add(Span{Rank: 0, Kind: SpanCompute, Name: "off-path", Start: 2, End: 3, Peer: -1, Link: LinkNone, FlowSeq: -1})

	tr.Add(Span{Rank: 1, Kind: SpanCompute, Name: "b", Start: 0, End: 1, Peer: -1, Link: LinkNone, FlowSeq: -1})
	tr.Add(Span{Rank: 1, Kind: EventSend, Start: 1, End: 1, Peer: 2, Bytes: 80, Tag: 6,
		Link: LinkIntraCluster, CrossSite: false, FlowFrom: 1, FlowSeq: 0})

	tr.Add(Span{Rank: 2, Kind: SpanCompute, Name: "pre", Start: 0, End: 0.5, Peer: -1, Link: LinkNone, FlowSeq: -1})
	tr.Add(Span{Rank: 2, Kind: SpanWait, Start: 0.5, End: 2.5, Peer: 0, Bytes: 800, Tag: 5,
		Link: LinkInterCluster, CrossSite: true, FlowFrom: 0, FlowSeq: 0})
	tr.Add(Span{Rank: 2, Kind: EventRecv, Start: 2.5, End: 2.5, Peer: 1, Bytes: 80, Tag: 6,
		Link: LinkIntraCluster, FlowFrom: 1, FlowSeq: 0})
	tr.Add(Span{Rank: 2, Kind: SpanCompute, Name: "tail", Start: 2.5, End: 4, Peer: -1, Link: LinkNone, FlowSeq: -1})
	return tr
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCriticalPathKnownDAG(t *testing.T) {
	cp := AnalyzeCriticalPath(buildDAGTrace())
	if cp.EndRank != 2 {
		t.Fatalf("end rank = %d, want 2", cp.EndRank)
	}
	if !approx(cp.Total, 4) {
		t.Fatalf("total = %g, want 4", cp.Total)
	}
	if !approx(cp.Compute, 3.5) {
		t.Fatalf("compute = %g, want 3.5 (rank0.a 2.0 + rank2.tail 1.5)", cp.Compute)
	}
	if !approx(cp.InterSite, 0.5) {
		t.Fatalf("inter-site comm = %g, want 0.5 (the m(0:0) transfer)", cp.InterSite)
	}
	if !approx(cp.IntraSite, 0) || !approx(cp.Idle, 0) {
		t.Fatalf("intra = %g idle = %g, want 0/0", cp.IntraSite, cp.Idle)
	}
	if cp.Msgs != 1 || cp.InterSiteMsgs != 1 {
		t.Fatalf("path msgs = %d/%d, want 1/1", cp.Msgs, cp.InterSiteMsgs)
	}
	if !approx(cp.Sum(), cp.Total) {
		t.Fatalf("decomposition sum %g != total %g", cp.Sum(), cp.Total)
	}
	// The path must be reported in time order: compute a, comm, compute tail.
	kinds := []string{}
	for _, s := range cp.Steps {
		kinds = append(kinds, s.Kind)
	}
	want := []string{"compute", "comm", "compute"}
	if len(kinds) != len(want) {
		t.Fatalf("steps = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("step %d = %q, want %q (%v)", i, kinds[i], want[i], kinds)
		}
	}
	if cp.Steps[0].Rank != 0 || cp.Steps[2].Rank != 2 {
		t.Fatalf("path ranks wrong: %+v", cp.Steps)
	}
}

func TestCriticalPathIdleTail(t *testing.T) {
	tr := buildDAGTrace()
	tr.Duration = 4.5 // e.g. a trailing Sleep advanced the clock
	cp := AnalyzeCriticalPath(tr)
	if !approx(cp.Idle, 0.5) {
		t.Fatalf("idle = %g, want 0.5 tail", cp.Idle)
	}
	if !approx(cp.Sum(), 4.5) {
		t.Fatalf("sum = %g, want 4.5", cp.Sum())
	}
}

func TestCriticalPathWaitWithoutSend(t *testing.T) {
	// A wait span whose matching send was never recorded is charged
	// entirely to communication on the receiver.
	tr := NewTrace(1)
	tr.Add(Span{Rank: 0, Kind: SpanWait, Start: 1, End: 3, Peer: 0, Link: LinkIntraNode, FlowFrom: 0, FlowSeq: 42})
	cp := AnalyzeCriticalPath(tr)
	if !approx(cp.IntraSite, 2) || !approx(cp.Idle, 1) {
		t.Fatalf("comm = %g idle = %g, want 2/1", cp.IntraSite, cp.Idle)
	}
	if !approx(cp.Sum(), cp.Total) {
		t.Fatalf("sum %g != total %g", cp.Sum(), cp.Total)
	}
}

// TestCriticalPathZeroDurationSpans is a regression test for a hang:
// the backward walk used to re-find a Start==End span forever because
// `now` never decreased past it. Zero-flop kernel charges produced
// exactly such spans in real runs.
func TestCriticalPathZeroDurationSpans(t *testing.T) {
	tr := NewTrace(1)
	tr.Add(Span{Rank: 0, Kind: SpanCompute, Name: "z0", Start: 0, End: 0, Peer: -1, Link: LinkNone, FlowSeq: -1})
	tr.Add(Span{Rank: 0, Kind: SpanCompute, Name: "work", Start: 0, End: 1, Peer: -1, Link: LinkNone, FlowSeq: -1})
	tr.Add(Span{Rank: 0, Kind: SpanCompute, Name: "z1", Start: 1, End: 1, Peer: -1, Link: LinkNone, FlowSeq: -1})
	cp := AnalyzeCriticalPath(tr)
	if !approx(cp.Total, 1) || !approx(cp.Compute, 1) || !approx(cp.Idle, 0) {
		t.Fatalf("total=%g compute=%g idle=%g, want 1/1/0", cp.Total, cp.Compute, cp.Idle)
	}
	if !approx(cp.Sum(), cp.Total) {
		t.Fatalf("sum %g != total %g", cp.Sum(), cp.Total)
	}

	// All-zero-duration trace: everything is idle, nothing loops.
	tr2 := NewTrace(1)
	tr2.Add(Span{Rank: 0, Kind: SpanCompute, Name: "z", Start: 0.5, End: 0.5, Peer: -1, Link: LinkNone, FlowSeq: -1})
	tr2.Duration = 0.5
	cp2 := AnalyzeCriticalPath(tr2)
	if !approx(cp2.Total, 0.5) || !approx(cp2.Idle, 0.5) || !approx(cp2.Compute, 0) {
		t.Fatalf("all-zero trace: %+v", cp2)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	cp := AnalyzeCriticalPath(NewTrace(2))
	if cp.Total != 0 || cp.Sum() != 0 || len(cp.Steps) != 0 {
		t.Fatalf("empty trace: %+v", cp)
	}
}

func TestPhaseNesting(t *testing.T) {
	tr := NewTrace(1)
	tr.BeginPhase(0, "outer", 0)
	tr.BeginPhase(0, "inner", 1)
	tr.Add(Span{Rank: 0, Kind: SpanCompute, Start: 1, End: 2, Peer: -1, FlowSeq: -1})
	tr.EndPhase(0, 2)
	tr.EndPhase(0, 3)
	track := tr.Track(0)
	if len(track) != 3 {
		t.Fatalf("track = %+v", track)
	}
	if track[0].Name != "outer" || track[0].End != 3 {
		t.Fatalf("outer phase = %+v", track[0])
	}
	if track[1].Name != "inner" || track[1].End != 2 {
		t.Fatalf("inner phase = %+v", track[1])
	}
	// Phases never leak into the timeline the analyzer walks.
	if tl := tr.Timeline(0); len(tl) != 1 || tl[0].Kind != SpanCompute {
		t.Fatalf("timeline = %+v", tl)
	}
}

// TestCommMatrix checks the matrix's sums and rows over the DAG trace's
// two sends: alpha→beta (800 bytes) and beta→beta (80 bytes). The world
// counts the entries (mpi's TestWorldCommMatrix).
func TestCommMatrix(t *testing.T) {
	m := NewCommMatrix([]string{"alpha", "beta"})
	if len(m.Msgs) != 2 || len(m.Bytes[1]) != 2 {
		t.Fatalf("sites = %d", len(m.Msgs))
	}
	m.Msgs[0][1], m.Bytes[0][1] = 1, 800
	m.Msgs[1][1], m.Bytes[1][1] = 1, 80
	if m.Msgs[1][0] != 0 || m.Bytes[0][0] != 0 {
		t.Fatalf("rows share storage: %v %v", m.Msgs, m.Bytes)
	}
	inter, interBytes := m.InterSite()
	if inter != 1 || interBytes != 800 {
		t.Fatalf("inter-site = %d msgs %g bytes", inter, interBytes)
	}
	if total, _ := m.Total(); total != 2 {
		t.Fatalf("total msgs = %d", total)
	}
	if s := m.String(); !strings.Contains(s, "beta") || !strings.Contains(s, "inter-site total: 1 msgs, 800 bytes") {
		t.Fatalf("rendered matrix:\n%s", s)
	}
}
