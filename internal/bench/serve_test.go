package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	"gridqr/internal/grid"
	"gridqr/internal/sched"
	"gridqr/internal/telemetry"
)

// TestServeStudyDeterministicTraffic runs the closed-loop harness on a
// small platform and checks the invariant the perf gate relies on: with
// batching off and symmetric two-site partitions, every load point sees
// the identical per-job traffic — here 8-rank partitions, so a 7-message
// reduction with exactly one inter-site hop.
func TestServeStudyDeterministicTraffic(t *testing.T) {
	g := grid.SmallTestGrid(4, 2, 2) // 4 sites × 4 procs → 2 partitions × 8 ranks
	rows, err := ServeStudy(context.Background(), g, []int{1, 3}, 4, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Jobs != int64(r.Clients*4) {
			t.Errorf("clients=%d: %d jobs completed, want %d", r.Clients, r.Jobs, r.Clients*4)
		}
		if r.MsgsPerJob != 7 || r.InterSiteMsgsPerJob != 1 {
			t.Errorf("clients=%d: msgs/job=%d inter/job=%d, want 7 and 1",
				r.Clients, r.MsgsPerJob, r.InterSiteMsgsPerJob)
		}
		if r.BytesPerJob != rows[0].BytesPerJob {
			t.Errorf("bytes/job drifts across load points: %g vs %g",
				r.BytesPerJob, rows[0].BytesPerJob)
		}
		if r.ThroughputJPS <= 0 || r.P50Seconds <= 0 || r.P99Seconds < r.P50Seconds ||
			r.P999Seconds < r.P99Seconds {
			t.Errorf("clients=%d: implausible timing row %+v", r.Clients, r)
		}
	}
	out := FormatServe(g, rows)
	if !strings.Contains(out, "msgs/job") || !strings.Contains(out, "closed-loop") ||
		!strings.Contains(out, "p999 (s)") {
		t.Fatalf("table missing headers:\n%s", out)
	}
}

// TestServeStudyCancel: a canceled context stops the sweep after the
// in-flight jobs drain, returning the rows finished so far and the
// context's error — never ErrDrainTimeout for a healthy server.
func TestServeStudyCancel(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the sweep: drain immediately at the first point
	rows, err := ServeStudy(ctx, g, []int{1, 2}, 4,
		ServeOptions{StudyOptions: StudyOptions{DrainTimeout: 10 * time.Second}})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want the first (drained) point only", len(rows))
	}
	// Clients observed the cancel before submitting anything.
	if rows[0].Jobs != 0 {
		t.Fatalf("pre-canceled sweep completed %d jobs", rows[0].Jobs)
	}
}

// TestServeStudyObservability: the OnPoint hook sees the live server
// and the sweep's registry carries the SLO series per point.
func TestServeStudyObservability(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	var points int
	var lastReg *telemetry.Registry
	rows, err := ServeStudy(context.Background(), g, []int{2}, 3, ServeOptions{
		TraceRing: &telemetry.RingConfig{Capacity: 64, Head: 8},
		StudyOptions: StudyOptions{OnPoint: func(srv *sched.Server, reg *telemetry.Registry) {
			points++
			lastReg = reg
			if srv.TraceTail(1) == nil {
				t.Error("OnPoint server is not ring-traced")
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if points != 1 || len(rows) != 1 {
		t.Fatalf("points=%d rows=%d", points, len(rows))
	}
	if c := lastReg.Counter("sched.jobs.completed").Value(); c != 6 {
		t.Fatalf("registry completed = %v, want 6", c)
	}
}

// TestCompareReportsServing checks that the gate diffs exactly the
// deterministic serving fields and ignores the wall-clock ones.
func TestCompareReportsServing(t *testing.T) {
	base := Report{Serving: []ServeRun{{
		Clients: 2, Jobs: 16, ThroughputJPS: 100, P50Seconds: 0.01, P99Seconds: 0.03,
		MsgsPerJob: 127, InterSiteMsgsPerJob: 1, BytesPerJob: 536448,
	}}}

	same := base
	same.Serving = append([]ServeRun(nil), base.Serving...)
	same.Serving[0].ThroughputJPS = 9 // wall-clock: must not gate
	same.Serving[0].P99Seconds = 42   // wall-clock: must not gate
	if d := CompareReports(same, base, Tolerances{}); len(d) != 0 {
		t.Fatalf("wall-clock drift flagged: %v", d)
	}

	drift := base
	drift.Serving = []ServeRun{{Clients: 2, Jobs: 16, MsgsPerJob: 128,
		InterSiteMsgsPerJob: 2, BytesPerJob: 1}}
	d := CompareReports(drift, base, Tolerances{})
	if len(d) != 3 {
		t.Fatalf("want 3 serving diffs (msgs, inter, bytes), got %v", d)
	}

	missing := Report{}
	if d := CompareReports(missing, base, Tolerances{}); len(d) != 1 ||
		!strings.Contains(d[0], "not measured") {
		t.Fatalf("missing serving row not flagged: %v", d)
	}
}
