package bench

import (
	"context"
	"encoding/json"
	"io"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/telemetry"
)

// Report is the machine-readable outcome of a set of benchmark runs:
// the configuration, the headline Gflop/s, measured traffic, and the
// critical-path decomposition of each traced run. It is what
// `gridbench -json` writes, and what the committed results/BENCH_*.json
// files record for regression comparison across PRs.
type Report struct {
	Platform string      `json:"platform"`
	Runs     []ReportRun `json:"runs"`
	// Serving holds the closed-loop serving-layer sweep (PR 4). Only
	// its deterministic per-job traffic fields participate in the perf
	// gate; wall-clock throughput and latency are informational.
	Serving []ServeRun `json:"serving,omitempty"`
	// TraceOverhead records the ring-collector cost study: span counts
	// gate exactly; the overhead percentage is recorded, never gated.
	TraceOverhead *TraceOverheadRun `json:"trace_overhead,omitempty"`
	// Scale holds the 1k–32k-rank event-engine sweep. Virtual seconds
	// and traffic counts gate (optionally filtered to a rank ceiling so
	// the PR gate re-runs only the cheap prefix; the nightly job re-runs
	// all of it); wall seconds and engine diagnostics never gate.
	Scale []ScaleRun `json:"scale,omitempty"`
	// Load holds the open-loop trace-driven sweep with the autoscaler in
	// the loop (PR 9). Arrival counts, the zero-lost invariant and the
	// per-job traffic gate; the admission split, latency quantiles and
	// throughput are host-dependent and informational.
	Load []LoadRun `json:"load,omitempty"`
	// Stream holds the open-loop streaming-ingest sweep (PR 10). Block
	// and snapshot counts, the zero-lost invariant and the exact
	// per-snapshot message counts gate; fold/snapshot latency and
	// throughput are host-dependent and informational.
	Stream []StreamRun `json:"stream,omitempty"`
}

// ReportRun is one experiment point of a Report.
type ReportRun struct {
	Algo    string `json:"algo"`
	Tree    string `json:"tree,omitempty"`
	Sites   int    `json:"sites"`
	Procs   int    `json:"procs"`
	M       int    `json:"m"`
	N       int    `json:"n"`
	Domains int    `json:"domains_per_cluster,omitempty"`
	WantQ   bool   `json:"want_q"`
	NB      int    `json:"nb,omitempty"`
	NX      int    `json:"nx,omitempty"`
	Overlap bool   `json:"overlap,omitempty"`

	Seconds      float64 `json:"seconds"`
	Gflops       float64 `json:"gflops"`
	ModelSeconds float64 `json:"model_seconds"`
	ModelGflops  float64 `json:"model_gflops"`

	// Measured traffic, total and per link class.
	Msgs          int64   `json:"msgs"`
	Bytes         float64 `json:"bytes"`
	InterSiteMsgs int64   `json:"inter_site_msgs"`
	Flops         float64 `json:"flops"`

	// Critical-path decomposition (traced runs only). Steps are omitted:
	// the committed report records the breakdown, not the full walk.
	CriticalPath *telemetry.CriticalPath `json:"critical_path,omitempty"`
}

// ReportRun builds the record of one executed point.
func (r Run) report(m Measurement) ReportRun {
	total := m.Counters.Total()
	rr := ReportRun{
		Algo:    r.Algo.String(),
		Sites:   r.Sites,
		Procs:   r.Grid.Sites(r.Sites).Procs(),
		M:       r.M,
		N:       r.N,
		Domains: r.DomainsPerCluster,
		WantQ:   r.WantQ,
		NB:      r.NB,
		NX:      r.NX,
		Overlap: r.Overlap,

		Seconds:      m.Seconds,
		Gflops:       m.Gflops,
		ModelSeconds: m.ModelSeconds,
		ModelGflops:  m.ModelGflops,

		Msgs:          total.Msgs,
		Bytes:         total.Bytes,
		InterSiteMsgs: m.Counters.PerClass[grid.InterCluster].Msgs,
		Flops:         m.Counters.Flops,
	}
	if r.Algo == TSQR {
		rr.Tree = r.Tree.String()
	}
	if m.CriticalPath != nil {
		cp := *m.CriticalPath
		cp.Steps = nil
		rr.CriticalPath = &cp
	}
	return rr
}

// BuildReport executes every run (forcing Traced so critical paths are
// measured) and assembles the Report.
func BuildReport(platform string, runs []Run) Report {
	rep := Report{Platform: platform}
	for _, r := range runs {
		r.Traced = true
		rep.Runs = append(rep.Runs, r.report(Execute(r)))
	}
	return rep
}

// StandardReport is the report `gridbench -json` writes and the perf
// gate re-measures: BuildReport over StandardReportRuns, then the
// serving, trace-overhead, scale (up to scaleRanks ranks, 0 = all), load
// and stream studies at their standard shapes. like, if non-nil, limits
// the studies to the sections it holds, so the gate re-runs only what
// its baseline can diff. Report generation has no cancellation path, so
// a study error (none expected without faults) panics.
func StandardReport(g *grid.Grid, platform string, scaleRanks int, like *Report) Report {
	rep := BuildReport(platform, StandardReportRuns(g))
	ctx := context.Background()
	if like == nil || len(like.Serving) > 0 {
		rep.Serving = must(ServeStudy(ctx, g, StandardServeLoads, ServeJobsPerClient, ServeOptions{}))
	}
	if like == nil || like.TraceOverhead != nil {
		to := TraceOverheadStudy(g)
		rep.TraceOverhead = &to
	}
	if like == nil || len(like.Scale) > 0 {
		rep.Scale = ScaleStudy(scaleRanks, nil)
	}
	if like == nil || len(like.Load) > 0 {
		// The Poisson rate ladder plus one bursty and one diurnal point at
		// the middle rate, autoscaler on.
		rep.Load = must(LoadStudy(ctx, g, "poisson", StandardLoadRates, LoadArrivals, LoadOptions{}))
		mid := StandardLoadRates[len(StandardLoadRates)/2:][:1]
		for _, arrival := range []string{"bursty", "diurnal"} {
			rep.Load = append(rep.Load, must(LoadStudy(ctx, g, arrival, mid, LoadArrivals, LoadOptions{}))...)
		}
	}
	if like == nil || len(like.Stream) > 0 {
		rep.Stream = must(StreamStudy(ctx, g, StandardStreamRates, StreamBlocksPerPoint,
			StreamOptions{}))
	}
	return rep
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// WriteJSON writes the report as indented JSON.
func (rep Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// StandardReportRuns is the canonical benchmark set the -json flag
// records: TSQR vs ScaLAPACK, one site vs all sites, at the paper's
// N = 64 with a medium M that keeps the run a few seconds; plus the
// overlap variants against their blocking twins (the lookahead pair
// runs at N = 256 with NB = NX = 32 so PDGEQRF actually performs block
// updates — at N = 64 it sits below the default crossover).
func StandardReportRuns(g *grid.Grid) []Run {
	m, n := 1<<20, 64
	all := len(g.Clusters)
	return []Run{
		{Grid: g, Sites: 1, M: m, N: n, Algo: TSQR, Tree: core.TreeGrid},
		{Grid: g, Sites: all, M: m, N: n, Algo: TSQR, Tree: core.TreeGrid},
		{Grid: g, Sites: 1, M: m, N: n, Algo: ScaLAPACK},
		{Grid: g, Sites: all, M: m, N: n, Algo: ScaLAPACK},
		{Grid: g, Sites: all, M: m, N: n, Algo: TSQR, Tree: core.TreeGrid, Overlap: true},
		{Grid: g, Sites: all, M: 1 << 18, N: 256, Algo: ScaLAPACK, NB: 32, NX: 32},
		{Grid: g, Sites: all, M: 1 << 18, N: 256, Algo: ScaLAPACK, NB: 32, NX: 32, Overlap: true},
	}
}
