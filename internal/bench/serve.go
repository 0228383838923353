package bench

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"gridqr/internal/grid"
	"gridqr/internal/mpi"
	"gridqr/internal/sched"
	"gridqr/internal/telemetry"
)

// Serving benchmark: a closed-loop load generator against the sched
// serving layer. C concurrent clients each submit a job, wait for its
// completion, and immediately submit the next one — the classic
// closed-loop harness, so the offered load is exactly C in-flight jobs
// and the sweep traces the throughput/latency curve as C grows past the
// partition count.
//
// The configuration is chosen for determinism: symmetric two-site
// partitions, so every job runs the identical TSQR
// reduction regardless of which partition serves it. Per-job message
// and byte counts are therefore exact invariants the perf gate can diff
// (wall-clock throughput and latency quantiles are recorded for the
// table but never gated — they measure the host, not the algorithm).

// Serving workload shape: M/(procs per partition) = 32 = N exactly, so
// each of the 128 ranks of a two-site partition holds one N×N leaf and
// a served job is a pure 127-message binary-tree reduction with exactly
// one inter-site message.
const (
	ServeM = 4096
	ServeN = 32
)

// StandardServeLoads is the closed-loop client sweep the -serve flag
// and the committed report run: below, at, and above the number of
// partitions.
var StandardServeLoads = []int{1, 2, 4, 8}

// ServeJobsPerClient is how many jobs each closed-loop client submits.
const ServeJobsPerClient = 8

// ErrDrainTimeout reports that in-flight jobs failed to complete within
// StudyOptions.DrainTimeout after a shutdown signal; gridbench exits
// nonzero exactly when it sees this error.
var ErrDrainTimeout = errors.New("bench: drain timeout: in-flight jobs did not complete")

// ServeRun is one offered-load point of the serving benchmark.
type ServeRun struct {
	Clients int   `json:"clients"`
	Jobs    int64 `json:"jobs"`

	// Wall-clock serving performance (host-dependent, never gated).
	ThroughputJPS float64 `json:"throughput_jobs_per_s"`
	P50Seconds    float64 `json:"p50_seconds"`
	P99Seconds    float64 `json:"p99_seconds"`
	P999Seconds   float64 `json:"p999_seconds"`
	// Queue-wait latency quantiles: how long jobs sat admitted but
	// undispatched — the backpressure signal of the SLO report.
	QueueP50Seconds float64 `json:"queue_p50_seconds"`
	QueueP99Seconds float64 `json:"queue_p99_seconds"`

	// Deterministic per-job traffic (gated against the baseline).
	MsgsPerJob          int64   `json:"msgs_per_job"`
	InterSiteMsgsPerJob int64   `json:"inter_site_msgs_per_job"`
	BytesPerJob         float64 `json:"bytes_per_job"`
}

// StudyOptions is what the serving, load and stream studies share; the
// zero value is silent and drains for 30s.
type StudyOptions struct {
	// Logger is handed to every server for structured per-job (per-round
	// for streams) lifecycle records. Nil means silent.
	Logger *slog.Logger
	// OnPoint fires when a point's server starts serving, giving the
	// monitoring endpoint the live server and registry to expose.
	OnPoint func(srv *sched.Server, reg *telemetry.Registry)
	// DrainTimeout bounds how long a canceled sweep waits for accepted
	// work before giving up with ErrDrainTimeout (default 30s).
	DrainTimeout time.Duration
}

func (o StudyOptions) drainTimeout() time.Duration {
	if o.DrainTimeout <= 0 {
		return 30 * time.Second
	}
	return o.DrainTimeout
}

// sweep runs a study's points in order, each on a fresh cost-only server
// that config shapes and run drives. It returns the rows finished so
// far: on the first failed point with its error, and after the point
// during which ctx was canceled with ctx's error.
func sweep[P, R any](ctx context.Context, o StudyOptions, points []P,
	config func(P) sched.Config, run func(P, *sched.Server) (R, error)) ([]R, error) {
	var out []R
	for _, p := range points {
		row, err := func() (R, error) {
			cfg := config(p)
			reg := telemetry.NewRegistry()
			cfg.CostOnly, cfg.Registry, cfg.Logger = true, reg, o.Logger
			srv := sched.Start(cfg)
			defer srv.Close()
			if o.OnPoint != nil {
				o.OnPoint(srv, reg)
			}
			return run(p, srv)
		}()
		if err != nil {
			return out, err
		}
		out = append(out, row)
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
	}
	return out, nil
}

// traffic tallies the counters of a point's finished jobs or snapshots;
// per divides them into the deterministic per-item columns the gate
// diffs.
type traffic struct {
	n, msgs, inter int64
	bytes          float64
}

func (t *traffic) add(c mpi.CounterSnapshot) {
	t.n++
	t.msgs += c.Total().Msgs
	t.bytes += c.Total().Bytes
	t.inter += c.Inter().Msgs
}

func (t traffic) per() (msgs, inter int64, bytes float64) {
	if t.n == 0 {
		return 0, 0, 0
	}
	return t.msgs / t.n, t.inter / t.n, t.bytes / float64(t.n)
}

// ServeOptions configures the closed-loop sweep; the zero value
// reproduces the plain benchmark.
type ServeOptions struct {
	StudyOptions
	// TraceRing arms bounded ring-buffer tracing on each point's world.
	TraceRing *telemetry.RingConfig
}

// servePlan pairs sites into partitions when the platform allows it, so
// every job crosses a site boundary; odd-sited platforms fall back to
// one partition per site.
func servePlan(g *grid.Grid) sched.Plan {
	if len(g.Clusters) >= 2 && len(g.Clusters)%2 == 0 {
		return sched.SiteGroups(g, 2)
	}
	return sched.PerSite(g)
}

// ServeStudy runs the closed-loop sweep: one fresh server per load
// point, C clients each submitting jobsPerClient TSQR jobs with
// distinct seeds. Cost-only worlds keep the 256-rank platform cheap
// while preserving exact message accounting. Canceling ctx stops
// clients from submitting further jobs; in-flight jobs are drained
// (bounded by DrainTimeout) and the rows finished so far are returned
// with ctx's error.
func ServeStudy(ctx context.Context, g *grid.Grid, loads []int, jobsPerClient int,
	opts ServeOptions) ([]ServeRun, error) {
	plan := servePlan(g)
	return sweep(ctx, opts.StudyOptions, loads,
		func(clients int) sched.Config {
			return sched.Config{
				Grid:      g,
				Plan:      plan,
				QueueCap:  clients, // closed loop: at most `clients` jobs in flight
				TraceRing: opts.TraceRing,
			}
		},
		func(clients int, srv *sched.Server) (ServeRun, error) {
			return serveOnePoint(ctx, srv, clients, jobsPerClient, opts.drainTimeout())
		})
}

func serveOnePoint(ctx context.Context, srv *sched.Server, clients, jobsPerClient int,
	drainTimeout time.Duration) (ServeRun, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		tally    traffic
		firstErr error
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := 0; i < jobsPerClient && ctx.Err() == nil; i++ {
				j, err := srv.Submit(sched.JobSpec{
					Kind: sched.KindTSQR, M: ServeM, N: ServeN,
					Seed: int64(1 + client*jobsPerClient + i),
				})
				if err == nil {
					// Drain discipline: once submitted, always wait the
					// job out — shutdown never abandons an accepted job.
					<-j.Done()
					res := j.Result()
					err = res.Err
					if err == nil {
						mu.Lock()
						tally.add(res.Counters)
						mu.Unlock()
					}
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(c)
	}

	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-ctx.Done():
		select {
		case <-drained:
		case <-time.After(drainTimeout):
			return ServeRun{}, fmt.Errorf("%w (load point %d clients)", ErrDrainTimeout, clients)
		}
	}
	elapsed := time.Since(start)
	if firstErr != nil {
		return ServeRun{}, fmt.Errorf("bench: serving benchmark job failed: %w", firstErr)
	}

	slo := srv.SLO()
	row := ServeRun{
		Clients:         clients,
		Jobs:            tally.n,
		ThroughputJPS:   float64(tally.n) / elapsed.Seconds(),
		P50Seconds:      slo.Latency.P50,
		P99Seconds:      slo.Latency.P99,
		P999Seconds:     slo.Latency.P999,
		QueueP50Seconds: slo.QueueWait.P50,
		QueueP99Seconds: slo.QueueWait.P99,
	}
	row.MsgsPerJob, row.InterSiteMsgsPerJob, row.BytesPerJob = tally.per()
	return row, nil
}

// FormatServe renders the sweep as the throughput-vs-offered-load table,
// latency quantiles included (p50/p99/p999 end-to-end, p99 queue wait).
func FormatServe(g *grid.Grid, rows []ServeRun) string {
	var b strings.Builder
	plan := servePlan(g)
	fmt.Fprintf(&b, "== Serving layer: closed-loop TSQR jobs (M=%d, N=%d, %d partitions × %d ranks) ==\n",
		ServeM, ServeN, len(plan.Groups), len(plan.Groups[0]))
	fmt.Fprintf(&b, "%8s %6s %12s %10s %10s %10s %10s %10s %12s %14s\n",
		"clients", "jobs", "jobs/s", "p50 (s)", "p99 (s)", "p999 (s)", "qp99 (s)",
		"msgs/job", "inter/job", "bytes/job")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %6d %12.1f %10.2g %10.2g %10.2g %10.2g %10d %12d %14.4g\n",
			r.Clients, r.Jobs, r.ThroughputJPS, r.P50Seconds, r.P99Seconds, r.P999Seconds,
			r.QueueP99Seconds, r.MsgsPerJob, r.InterSiteMsgsPerJob, r.BytesPerJob)
	}
	return b.String()
}
