package sched

import (
	"bytes"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"

	"gridqr/internal/grid"
	"gridqr/internal/mpi"
	"gridqr/internal/telemetry"
)

// TestSLOAndJobTable: a served burst populates the SLO snapshot, the
// labeled outcome series, and the job table.
func TestSLOAndJobTable(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	reg := telemetry.NewRegistry()
	var logBuf bytes.Buffer
	const jobs = recentJobs + 6 // more than the finished-job table keeps
	s := Start(Config{
		Grid: g, CostOnly: true, Registry: reg, QueueCap: jobs,
		Logger: slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	var futures []*Job
	for i := 0; i < jobs; i++ {
		j, err := s.Submit(JobSpec{Kind: KindTSQR, M: 1 << 12, N: 16, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, j)
	}
	// One rejection of each admission-typed kind.
	if _, err := s.Submit(JobSpec{Kind: KindTSQR, M: 4, N: 16}); err == nil {
		t.Fatal("bad spec admitted")
	}
	for _, f := range futures {
		if res := f.Result(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	s.Close()

	slo := s.SLO()
	if slo.Completed != jobs || slo.Submitted != jobs || slo.Rejected != 1 {
		t.Fatalf("SLO counters: %+v", slo)
	}
	if slo.QueueDepth != 0 || slo.InFlight != 0 {
		t.Fatalf("drained server shows load: %+v", slo)
	}
	if slo.Latency.Count != jobs || slo.Latency.P50 <= 0 ||
		slo.Latency.P99 < slo.Latency.P50 || slo.Latency.P999 < slo.Latency.P99 {
		t.Fatalf("latency quantiles: %+v", slo.Latency)
	}
	if slo.QueueWait.Count != jobs {
		t.Fatalf("queue-wait count: %+v", slo.QueueWait)
	}

	// Labeled series.
	if v := reg.CounterL("sched.rejections", telemetry.Labels{"reason": "bad_spec"}).Value(); v != 1 {
		t.Fatalf("bad_spec rejections = %v", v)
	}
	if v := reg.CounterL("sched.jobs.by_kind", telemetry.Labels{"kind": "tsqr"}).Value(); v != jobs {
		t.Fatalf("by_kind tsqr = %v", v)
	}

	// Job table: recentJobs bounds the finished rows, newest first.
	table := s.Jobs()
	if len(table) != recentJobs {
		t.Fatalf("job table rows = %d, want %d", len(table), recentJobs)
	}
	for i, ji := range table {
		if ji.Status != "done" || ji.Kind != "tsqr" || ji.Partition < 0 {
			t.Fatalf("row %d: %+v", i, ji)
		}
		if i > 0 && table[i-1].ID < ji.ID {
			t.Fatalf("finished rows not newest-first: %v then %v", table[i-1].ID, ji.ID)
		}
	}

	// Structured log: lifecycle records with per-job fields.
	logs := logBuf.String()
	for _, want := range []string{
		"job submitted", "job dispatched", "job completed", "job rejected",
		"kind=tsqr", "outcome=done", "reason=bad_spec", "partition=",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("log missing %q:\n%s", want, logs)
		}
	}
}

// TestObserveQuietByDefault: a nil Logger stays silent and nothing
// panics on the logging paths.
func TestObserveQuietByDefault(t *testing.T) {
	g := grid.SmallTestGrid(1, 2, 2)
	s := Start(Config{Grid: g, CostOnly: true})
	j, err := s.Submit(JobSpec{Kind: KindTSQR, M: 1 << 10, N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res := j.Result(); res.Err != nil {
		t.Fatal(res.Err)
	}
	s.Close()
	if s.SLO().Completed != 1 {
		t.Fatal("job not counted")
	}
}

// TestDroppedJobsTyped: a job that can never run again lands in the
// typed rejection series and the job table as a failure. The fault plan
// kills a member of the only partition during the job; the retry finds
// no healthy partition left and fails with ErrNoPartition.
func TestDroppedJobsTyped(t *testing.T) {
	g := grid.SmallTestGrid(1, 2, 2) // one site: one partition of 4
	reg := telemetry.NewRegistry()
	fp := mpi.NewFaultPlan(1).Kill(1, 0)
	fp.RecvTimeout = 5 * time.Second // liveness net, not part of the scenario
	s := Start(Config{Grid: g, CostOnly: true, Registry: reg, Faults: fp})
	j, err := s.Submit(JobSpec{Kind: KindTSQR, M: 1 << 10, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	res := j.Result()
	s.Close()
	if !errors.Is(res.Err, ErrNoPartition) || res.Partition != -1 {
		t.Fatalf("job finished with %v on partition %d, want ErrNoPartition on -1", res.Err, res.Partition)
	}
	if v := reg.CounterL("sched.rejections", telemetry.Labels{"reason": "no_partition"}).Value(); v != 1 {
		t.Fatalf("no_partition rejections = %v", v)
	}
	if slo := s.SLO(); slo.Failed != 1 || slo.Completed != 0 {
		t.Fatalf("SLO after the dropped job: %+v", slo)
	}
	var found bool
	for _, ji := range s.Jobs() {
		if ji.ID == j.ID() && ji.Status == "failed" && ji.Error == ErrNoPartition.Error() {
			found = true
		}
	}
	if !found {
		t.Fatalf("dropped job missing from table: %+v", s.Jobs())
	}
}

// TestServerTraceTail: a ring-traced server exports a live span tail.
func TestServerTraceTail(t *testing.T) {
	g := grid.SmallTestGrid(1, 2, 2)
	s := Start(Config{
		Grid: g, CostOnly: true,
		TraceRing: &telemetry.RingConfig{Capacity: 64, Head: 8},
	})
	j, err := s.Submit(JobSpec{Kind: KindTSQR, M: 1 << 10, N: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res := j.Result(); res.Err != nil {
		t.Fatal(res.Err)
	}
	tail := s.World().TraceTail(10)
	if tail == nil {
		t.Fatal("no trace tail from ring-traced server")
	}
	var spans int
	for r := 0; r < tail.Ranks(); r++ {
		if n := len(tail.Track(r)); n > 10 {
			t.Fatalf("rank %d tail holds %d spans", r, n)
		} else {
			spans += n
		}
	}
	if spans == 0 {
		t.Fatal("trace tail empty after a served job")
	}
	if st := s.World().TraceStats(); st.Seen == 0 || st.Retained > int64(g.Procs())*(64+8) {
		t.Fatalf("trace stats: %+v", st)
	}
	s.Close()

	// Untraced servers report nil/zero.
	s2 := Start(Config{Grid: g, CostOnly: true})
	defer s2.Close()
	if s2.World().TraceTail(5) != nil || s2.World().TraceStats() != (telemetry.RingStats{}) {
		t.Fatal("untraced server exported a trace")
	}
}
