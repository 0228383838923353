package bench

import (
	"strings"
	"testing"

	"gridqr/internal/grid"
)

// TestTraceOverheadStudy runs the study on a small platform: span
// accounting must be deterministic across repeats and within bound.
func TestTraceOverheadStudy(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	a := TraceOverheadStudy(g)
	b := TraceOverheadStudy(g)
	if a.SpansSeen == 0 || a.SpansRetained == 0 {
		t.Fatalf("no spans recorded: %+v", a)
	}
	if a.SpansSeen != b.SpansSeen || a.SpansRetained != b.SpansRetained {
		t.Fatalf("span counts drift across runs: %+v vs %+v", a, b)
	}
	if a.SpansRetained > a.RetainedBound {
		t.Fatalf("retained %d exceeds bound %d", a.SpansRetained, a.RetainedBound)
	}
	if a.UntracedSeconds <= 0 || a.RingSeconds <= 0 {
		t.Fatalf("missing wall-clock measurements: %+v", a)
	}
	if out := FormatTraceOverhead(a); !strings.Contains(out, "overhead") ||
		!strings.Contains(out, "retained") {
		t.Fatalf("rendering incomplete:\n%s", out)
	}
}

// TestCompareReportsTraceOverhead: exact span gating, wall-clock never
// gated.
func TestCompareReportsTraceOverhead(t *testing.T) {
	base := Report{TraceOverhead: &TraceOverheadRun{
		M: TraceOverheadM, N: TraceOverheadN, Procs: 256,
		UntracedSeconds: 1, RingSeconds: 1.02, OverheadPct: 2,
		SpansSeen: 100000, SpansRetained: 73728, RetainedBound: 73728,
	}}

	same := Report{TraceOverhead: &TraceOverheadRun{
		SpansSeen: 100000, SpansRetained: 73728, RetainedBound: 73728,
		UntracedSeconds: 9, RingSeconds: 9.5, OverheadPct: 5.6, // host-dependent
	}}
	if d := CompareReports(same, base, Tolerances{}); len(d) != 0 {
		t.Fatalf("wall-clock drift flagged: %v", d)
	}

	drift := Report{TraceOverhead: &TraceOverheadRun{
		SpansSeen: 99999, SpansRetained: 73000, RetainedBound: 73728, OverheadPct: 2,
	}}
	if d := CompareReports(drift, base, Tolerances{}); len(d) != 2 {
		t.Fatalf("want 2 span diffs, got %v", d)
	}

	if d := CompareReports(Report{}, base, Tolerances{}); len(d) != 1 ||
		!strings.Contains(d[0], "not measured") {
		t.Fatalf("missing study not flagged: %v", d)
	}
}
