package monitor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridqr/internal/grid"
	"gridqr/internal/sched"
	"gridqr/internal/telemetry"
)

// fixture builds a handler over canned data sources.
func fixture(healthErr error) http.Handler {
	reg := telemetry.NewRegistry()
	reg.Counter("mon.requests").Add(5)
	reg.Histogram("mon.seconds").Observe(0.25)
	tr := telemetry.NewTrace(2)
	tr.Add(telemetry.Span{Rank: 0, Kind: telemetry.SpanCompute, Name: "k",
		Start: 0, End: 1, Peer: -1, Link: telemetry.LinkNone, FlowSeq: -1})
	tr.Duration = 1
	return Handler(Config{
		Registry: reg,
		Jobs:     func() any { return []map[string]any{{"id": 1, "status": "done"}} },
		Trace: func(lastN int) *telemetry.Trace {
			if lastN == 0 {
				return tr
			}
			return tr
		},
		Health: func() error { return healthErr },
	})
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func TestEndpoints(t *testing.T) {
	h := fixture(nil)

	code, body := get(t, h, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics -> %d", code)
	}
	if n, err := telemetry.ValidatePrometheus(strings.NewReader(body)); err != nil || n == 0 {
		t.Fatalf("/metrics invalid (%d samples): %v\n%s", n, err, body)
	}
	if !strings.Contains(body, "mon_requests 5") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	if code, body = get(t, h, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz -> %d %q", code, body)
	}
	if code, _ = get(t, fixture(errors.New("partition lost")), "/healthz"); code != 503 {
		t.Fatalf("unhealthy /healthz -> %d, want 503", code)
	}

	code, body = get(t, h, "/jobs")
	if code != 200 {
		t.Fatalf("/jobs -> %d", code)
	}
	var rows []map[string]any
	if err := json.Unmarshal([]byte(body), &rows); err != nil || len(rows) != 1 {
		t.Fatalf("/jobs payload: %v\n%s", err, body)
	}

	code, body = get(t, h, "/trace?last=2")
	if code != 200 {
		t.Fatalf("/trace -> %d", code)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Fatalf("/trace payload: %v\n%s", err, body)
	}
	if code, _ = get(t, h, "/trace?last=bogus"); code != 400 {
		t.Fatalf("/trace?last=bogus -> %d, want 400", code)
	}

	if code, _ = get(t, h, "/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ -> %d", code)
	}
}

// TestDisabledEndpoints: a Config with nil sources 404s cleanly.
func TestDisabledEndpoints(t *testing.T) {
	h := Handler(Config{Registry: telemetry.NewRegistry()})
	for _, path := range []string{"/jobs", "/trace"} {
		if code, _ := get(t, h, path); code != 404 {
			t.Errorf("%s -> %d, want 404", path, code)
		}
	}
}

// TestSwappable: rebinding the handler re-points every endpoint while
// requests keep flowing — the mechanism behind gridbench -serve keeping
// one scrape address across its per-load-point servers.
func TestSwappable(t *testing.T) {
	s := NewSwappable()
	if code, _ := get(t, s, "/metrics"); code != 404 {
		t.Fatalf("empty Swappable /metrics -> %d, want 404", code)
	}

	regA := telemetry.NewRegistry()
	regA.Counter("point.a").Inc()
	s.Set(Config{Registry: regA})
	if code, body := get(t, s, "/metrics"); code != 200 || !strings.Contains(body, "point_a 1") {
		t.Fatalf("after first Set: %d\n%s", code, body)
	}

	regB := telemetry.NewRegistry()
	regB.Counter("point.b").Inc()
	s.Set(Config{Registry: regB})
	_, body := get(t, s, "/metrics")
	if !strings.Contains(body, "point_b 1") || strings.Contains(body, "point_a") {
		t.Fatalf("after rebind, still serving the old registry:\n%s", body)
	}
}

// TestScrapeUnderChurn hammers /jobs and /metrics from concurrent
// scrapers while jobs churn through a live scheduler, pinning two
// properties that only show up mid-flight: every scrape is well-formed
// (valid Prometheus text, valid JSON), and the bounded finished-job
// table never exceeds its cap in any snapshot — including ones taken
// while completions are racing the ring writer. Run under -race this
// also proves the observer and registry are scrape-safe.
func TestScrapeUnderChurn(t *testing.T) {
	const recentCap = 4
	g := grid.SmallTestGrid(2, 2, 2)
	reg := telemetry.NewRegistry()
	srv := sched.Start(sched.Config{
		Grid: g, CostOnly: true, Registry: reg, RecentJobs: recentCap,
		Plan: sched.PerSite(g),
	})
	defer srv.Close()
	h := Handler(Config{
		Registry: reg,
		Jobs:     func() any { return srv.Jobs() },
	})

	stop := make(chan struct{})
	errs := make(chan error, 4)
	scraper := func(path string, check func(body string) error) {
		for {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			code, body := get(t, h, path)
			if code != 200 {
				errs <- fmt.Errorf("%s -> %d mid-churn", path, code)
				return
			}
			if err := check(body); err != nil {
				errs <- fmt.Errorf("%s: %v", path, err)
				return
			}
		}
	}
	go scraper("/jobs", func(body string) error {
		var rows []sched.JobInfo
		if err := json.Unmarshal([]byte(body), &rows); err != nil {
			return fmt.Errorf("bad JSON: %v", err)
		}
		finished := 0
		for _, ji := range rows {
			if ji.Status == "done" || ji.Status == "failed" {
				finished++
			}
		}
		if finished > recentCap {
			return fmt.Errorf("finished rows %d exceed cap %d mid-scrape", finished, recentCap)
		}
		return nil
	})
	go scraper("/metrics", func(body string) error {
		if _, err := telemetry.ValidatePrometheus(strings.NewReader(body)); err != nil {
			return fmt.Errorf("invalid Prometheus text: %v", err)
		}
		return nil
	})

	// Churn: many small jobs completing while the scrapers read, spread
	// over both partitions so completions genuinely race.
	var jobs []*sched.Job
	for i := 0; i < 48; i++ {
		j, err := srv.Submit(sched.JobSpec{Kind: sched.KindTSQR, M: 1 << 10, N: 8, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if res := j.Result(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	close(stop)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// Post-churn snapshot: table settled at exactly the cap.
	var rows []sched.JobInfo
	_, body := get(t, h, "/jobs")
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != recentCap {
		t.Fatalf("settled table has %d rows, want %d", len(rows), recentCap)
	}
}

// TestServeSmokeScrape is the nightly smoke: a real scheduler serving
// real jobs, monitored over a real TCP listener, scraped like
// Prometheus would, response validated by the text-format parser.
func TestServeSmokeScrape(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	reg := telemetry.NewRegistry()
	srv := sched.Start(sched.Config{
		Grid: g, CostOnly: true, Registry: reg,
		TraceRing: &telemetry.RingConfig{Capacity: 128, Head: 16},
	})
	for i := 0; i < 6; i++ {
		j, err := srv.Submit(sched.JobSpec{Kind: sched.KindTSQR, M: 1 << 12, N: 16, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if res := j.Result(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}

	mon, err := Start("127.0.0.1:0", Config{
		Registry: reg,
		Jobs:     func() any { return srv.Jobs() },
		Trace:    srv.TraceTail,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := mon.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	scrape := func(path string) string {
		resp, err := http.Get("http://" + mon.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s -> %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	body := scrape("/metrics")
	if n, err := telemetry.ValidatePrometheus(strings.NewReader(body)); err != nil || n == 0 {
		t.Fatalf("scrape invalid (%d samples): %v\n%s", n, err, body)
	}
	for _, want := range []string{
		"sched_jobs_completed 6",
		"sched_latency_seconds_count 6",
		`sched_jobs_by_kind{kind="tsqr"} 6`,
		"# HELP sched_latency_seconds submission-to-completion latency",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	var jobs []sched.JobInfo
	if err := json.Unmarshal([]byte(scrape("/jobs")), &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 {
		t.Fatalf("job table rows = %d, want 6", len(jobs))
	}
	for _, ji := range jobs {
		if ji.Status != "done" || ji.Kind != "tsqr" {
			t.Fatalf("job row %+v", ji)
		}
	}

	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(scrape("/trace?last=50")), &chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("trace tail is empty")
	}

	srv.Close()
	slo := srv.SLO()
	if slo.Completed != 6 || slo.InFlight != 0 || slo.QueueDepth != 0 {
		t.Fatalf("SLO after drain: %+v", slo)
	}
	if slo.Latency.P99 <= 0 || slo.Latency.Count != 6 {
		t.Fatalf("latency quantiles not populated: %+v", slo.Latency)
	}
}

// TestStreamJobsScrape scrapes /jobs and /metrics while a live stream
// folds blocks and serves snapshot barriers. Stream rounds appear as
// kind "stream" rows, every scrape is well-formed, and — run under
// -race in CI — the job table provably never touches the folder state
// the rounds are mutating.
func TestStreamJobsScrape(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	reg := telemetry.NewRegistry()
	srv := sched.Start(sched.Config{Grid: g, Registry: reg, Plan: sched.PerSite(g)})
	defer srv.Close()
	h := Handler(Config{
		Registry: reg,
		Jobs:     func() any { return srv.Jobs() },
	})

	sj, err := srv.SubmitStream(sched.JobSpec{N: 4, BlockRows: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	sawStream := make(chan bool, 1)
	go func() {
		// Once stop closes, scrape one last time: the finished rounds are
		// in the table then, however the scrapes interleaved with them.
		saw := false
		for {
			var last bool
			select {
			case <-stop:
				last = true
			default:
			}
			code, body := get(t, h, "/jobs")
			if code != 200 {
				t.Errorf("/jobs -> %d mid-stream", code)
				sawStream <- saw
				return
			}
			var rows []sched.JobInfo
			if err := json.Unmarshal([]byte(body), &rows); err != nil {
				t.Errorf("/jobs bad JSON mid-stream: %v", err)
				sawStream <- saw
				return
			}
			for _, ji := range rows {
				if ji.Kind == "stream" {
					saw = true
				}
			}
			code, body = get(t, h, "/metrics")
			if code != 200 {
				t.Errorf("/metrics -> %d mid-stream", code)
				sawStream <- saw
				return
			}
			if !strings.Contains(body, "sched_stream_blocks") {
				t.Error("stream counters missing from /metrics")
				sawStream <- saw
				return
			}
			if last {
				sawStream <- saw
				return
			}
		}
	}()

	for i := 0; i < 30; i++ {
		if err := sj.Ingest(1); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if _, err := sj.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sj.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if !<-sawStream {
		t.Error("no stream round ever appeared in /jobs")
	}
}
