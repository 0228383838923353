package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"gridqr/internal/elastic"
	"gridqr/internal/grid"
	"gridqr/internal/perfmodel"
	"gridqr/internal/sched"
)

// Open-loop load harness: a trace-driven arrival process (Poisson,
// bursty, or diurnal replay) submits jobs on its own clock — never
// waiting for completions — with the SLO-driven autoscaler re-forming
// the partition plan in the loop. Unlike the closed-loop sweep above,
// offered load is decoupled from service capacity, so past the knee the
// queue saturates and the server sheds typed (ErrQueueFull) instead of
// silently stretching latency.
//
// Determinism contract for the perf gate: every ladder level is built
// from EQUAL-SIZE two-site partitions, and preemption/resume conserves
// per-job traffic exactly, so msgs/job, inter-site msgs/job and
// bytes/job are invariant under any autoscaling, stealing or preemption
// timing the host produces. Arrival counts come from the seeded trace.
// Admission splits (completed vs shed), latency quantiles and
// throughput are host-dependent and never gated.

// Standard open-loop sweep shape for the committed report.
var StandardLoadRates = []float64{100, 500, 2500}

// LoadArrivals is the arrivals per load point of the standard sweep.
const LoadArrivals = 160

// LoadRun is one (trace, offered-rate) point of the open-loop study.
type LoadRun struct {
	Trace    string  `json:"trace"`
	RatePerS float64 `json:"rate_per_s"`
	// Arrivals is the trace length — deterministic, gated.
	Arrivals int `json:"arrivals"`

	// Admission split (host-dependent, informational) — except Lost,
	// which counts admitted jobs that never completed and must be zero:
	// the serving layer never silently drops an accepted job.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Failed    int64 `json:"failed"`
	Lost      int64 `json:"lost"`

	// Autoscaler and scheduler activity during the run (informational).
	ScaleUps    int   `json:"scale_ups"`
	ScaleDowns  int   `json:"scale_downs"`
	Preemptions int64 `json:"preemptions"`
	Steals      int64 `json:"steals"`

	// Wall-clock serving performance (host-dependent, never gated).
	ThroughputJPS   float64 `json:"throughput_jobs_per_s"`
	P50Seconds      float64 `json:"p50_seconds"`
	P99Seconds      float64 `json:"p99_seconds"`
	P999Seconds     float64 `json:"p999_seconds"`
	QueueP99Seconds float64 `json:"queue_p99_seconds"`

	// Deterministic per-job traffic (gated): invariant under scaling,
	// preemption and stealing because partitions are equal-size and
	// checkpoint/resume conserves messages exactly.
	MsgsPerJob          int64   `json:"msgs_per_job"`
	InterSiteMsgsPerJob int64   `json:"inter_site_msgs_per_job"`
	BytesPerJob         float64 `json:"bytes_per_job"`
}

// LoadOptions configures the open-loop study; the zero value reproduces
// the committed benchmark.
type LoadOptions struct {
	StudyOptions
	// QueueCap bounds admission (default 32); the knee's shedding rate
	// is a direct function of it.
	QueueCap int
	// NoAutoscale pins the plan to the ladder's first level.
	NoAutoscale bool
}

// loadLadder builds the capacity ladder and the single-partition
// predictor for a platform: level 0 serves from the first partition
// only (the rest of the grid idles as spares), the top level uses every
// partition. Partitions pair sites when possible, matching servePlan,
// so every level's partitions are the same size.
func loadLadder(g *grid.Grid) ([]sched.Plan, perfmodel.Predictor) {
	full := servePlan(g)
	pred := perfmodel.Predictor{G: g, Sites: len(g.Clusters) / len(full.Groups)}
	var ladder []sched.Plan
	for lvl := 1; lvl <= len(full.Groups); lvl *= 2 {
		ladder = append(ladder, sched.Plan{Groups: full.Groups[:lvl]})
	}
	if top := len(full.Groups); len(ladder) > 0 &&
		len(ladder[len(ladder)-1].Groups) != top {
		ladder = append(ladder, full)
	}
	return ladder, pred
}

// makeTrace constructs the named arrival process for one load point.
// Seeds are fixed functions of the rate so every run of the benchmark
// replays the identical trace.
func makeTrace(arrival string, rate float64, n int) (elastic.Trace, error) {
	seed := int64(rate*1000) + 17
	switch arrival {
	case "poisson":
		return elastic.Poisson(rate, n, seed), nil
	case "bursty":
		return elastic.Bursty(rate, 4, 16, n, seed), nil
	case "diurnal":
		// One full diurnal swing over the trace: the "day" is compressed
		// to the nominal trace duration.
		period := time.Duration(float64(n) / rate * float64(time.Second))
		return elastic.Diurnal(rate, 0.8, period, n, seed), nil
	default:
		return nil, fmt.Errorf("bench: unknown arrival process %q", arrival)
	}
}

// LoadStudy runs the open-loop sweep: for each offered rate, a fresh
// cost-only server starts at the ladder's lowest level and the trace
// drives submissions while the autoscaler steps in the loop. Canceling
// ctx stops the arrival process; admitted jobs are drained (bounded by
// DrainTimeout) and the rows finished so far are returned with ctx's
// error.
func LoadStudy(ctx context.Context, g *grid.Grid, arrival string, rates []float64,
	arrivals int, opts LoadOptions) ([]LoadRun, error) {
	if opts.QueueCap <= 0 {
		opts.QueueCap = 32
	}
	ladder, pred := loadLadder(g)
	return sweep(ctx, opts.StudyOptions, rates,
		func(float64) sched.Config {
			return sched.Config{
				Grid:     g,
				Plan:     ladder[0],
				QueueCap: opts.QueueCap,
			}
		},
		func(rate float64, srv *sched.Server) (LoadRun, error) {
			return loadOnePoint(ctx, srv, ladder, pred, arrival, rate, arrivals, opts)
		})
}

func loadOnePoint(ctx context.Context, srv *sched.Server, ladder []sched.Plan,
	pred perfmodel.Predictor, arrival string, rate float64, arrivals int,
	opts LoadOptions) (LoadRun, error) {
	tr, err := makeTrace(arrival, rate, arrivals)
	if err != nil {
		return LoadRun{}, err
	}
	var as *elastic.Autoscaler
	if !opts.NoAutoscale {
		as, err = elastic.New(srv, elastic.Config{
			Ladder: ladder,
			Pred:   pred,
			Policy: elastic.Policy{
				M: ServeM, N: ServeN,
				Target:   250 * time.Millisecond,
				Cooldown: 4,
			},
		})
		if err != nil {
			return LoadRun{}, err
		}
	}

	row := LoadRun{Trace: tr.Name(), RatePerS: rate}
	var futures []*sched.Job
	start := time.Now()
	for {
		gap, ok := tr.Next()
		if !ok || ctx.Err() != nil {
			break
		}
		row.Arrivals++
		time.Sleep(gap)
		j, err := srv.Submit(sched.JobSpec{
			Kind: sched.KindTSQR, M: ServeM, N: ServeN,
			Seed:        int64(row.Arrivals),
			Preemptible: true,
		})
		switch {
		case err == nil:
			row.Submitted++
			futures = append(futures, j)
		case errors.Is(err, sched.ErrQueueFull):
			row.Shed++ // graceful shedding: typed backpressure, not a timeout
		default:
			return row, fmt.Errorf("bench: open-loop submit: %w", err)
		}
		if as != nil {
			if _, err := as.Step(); err != nil {
				return row, fmt.Errorf("bench: autoscaler step: %w", err)
			}
		}
	}

	// Drain discipline: every admitted job is waited out, even after
	// cancellation (bounded), so Lost really measures the server.
	var tally traffic
	deadline := time.NewTimer(opts.drainTimeout())
	defer deadline.Stop()
	for _, j := range futures {
		if ctx.Err() != nil {
			select {
			case <-j.Done():
			case <-deadline.C:
				return row, fmt.Errorf("%w (rate %g/s)", ErrDrainTimeout, rate)
			}
		}
		res := j.Result()
		if res.Err != nil {
			row.Failed++
			continue
		}
		row.Preemptions += int64(res.Preemptions)
		tally.add(res.Counters)
	}
	elapsed := time.Since(start)

	row.Completed = tally.n
	row.Lost = row.Submitted - row.Completed - row.Failed
	if as != nil {
		row.ScaleUps, row.ScaleDowns, _ = as.Stats()
	}
	row.Steals = srv.Stats().Steals
	slo := srv.SLO()
	row.ThroughputJPS = float64(row.Completed) / elapsed.Seconds()
	row.P50Seconds = slo.Latency.P50
	row.P99Seconds = slo.Latency.P99
	row.P999Seconds = slo.Latency.P999
	row.QueueP99Seconds = slo.QueueWait.P99
	row.MsgsPerJob, row.InterSiteMsgsPerJob, row.BytesPerJob = tally.per()
	return row, nil
}

// FormatLoad renders the open-loop study as the latency-vs-offered-load
// table the experiments document quotes.
func FormatLoad(g *grid.Grid, rows []LoadRun) string {
	var b strings.Builder
	top := servePlan(g) // the ladder's top level
	fmt.Fprintf(&b, "== Open-loop serving: trace-driven TSQR arrivals (M=%d, N=%d, ladder 1..%d × %d ranks, autoscaled) ==\n",
		ServeM, ServeN, len(top.Groups), len(top.Groups[0]))
	fmt.Fprintf(&b, "%8s %8s %5s %5s %5s %5s %5s %4s %9s %9s %9s %9s %9s %9s\n",
		"trace", "rate/s", "arr", "done", "shed", "lost", "preempt", "up",
		"jobs/s", "p50 (s)", "p99 (s)", "p999 (s)", "msgs/job", "inter/job")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8s %8.0f %5d %5d %5d %5d %7d %4d %9.1f %9.2g %9.2g %9.2g %9d %9d\n",
			r.Trace, r.RatePerS, r.Arrivals, r.Completed, r.Shed, r.Lost, r.Preemptions,
			r.ScaleUps, r.ThroughputJPS, r.P50Seconds, r.P99Seconds, r.P999Seconds,
			r.MsgsPerJob, r.InterSiteMsgsPerJob)
	}
	return b.String()
}
