package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// Baseline comparison: the CI perf gate re-runs the standard benchmark
// set and diffs it against the committed results/BENCH_*.json. The
// simulation is deterministic — message and flop counts follow exactly
// from the algorithms' communication structure — so counts must match
// exactly, and accumulated floats (bytes, flops, simulated seconds)
// within tight relative tolerances. Any drift means a code change
// altered the communication or computation structure and the baseline
// must be regenerated deliberately. Wall-clock columns (serving
// throughput and latency, fold and snapshot latency, trace overhead,
// scale wall seconds) measure the host, not the algorithm, and are
// deliberately never gated.

// Tolerances for CompareReports. Zero values select the defaults.
type Tolerances struct {
	RelBytes   float64 // relative tolerance on byte totals (default 1e-9)
	RelFlops   float64 // relative tolerance on flop totals (default 1e-9)
	RelSeconds float64 // relative tolerance on simulated seconds (default 1e-6)
	// ScaleMaxRanks skips baseline scale runs above this rank count
	// (0 = gate every recorded point). The PR gate sets 4096 so the
	// committed 32k points don't have to be re-run on every push; the
	// nightly job gates the full sweep.
	ScaleMaxRanks int
}

func (t Tolerances) withDefaults() Tolerances {
	if t.RelBytes == 0 {
		t.RelBytes = 1e-9
	}
	if t.RelFlops == 0 {
		t.RelFlops = 1e-9
	}
	if t.RelSeconds == 0 {
		t.RelSeconds = 1e-6
	}
	return t
}

// configKey identifies a run by its configuration, so reports can be
// matched even if run order or the set of runs changes between versions.
func configKey(r ReportRun) string {
	return fmt.Sprintf("%s/%s/sites=%d/m=%d/n=%d/d=%d/q=%t/nb=%d/nx=%d/overlap=%t",
		r.Algo, r.Tree, r.Sites, r.M, r.N, r.Domains, r.WantQ, r.NB, r.NX, r.Overlap)
}

// ReadReport parses a JSON report written by WriteJSON.
func ReadReport(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("bench: bad baseline report: %w", err)
	}
	return rep, nil
}

// CompareReports diffs a freshly measured report against a committed
// baseline and returns one human-readable line per mismatch (empty means
// the gate passes). Baseline runs missing from the measured report are
// mismatches — a silently dropped benchmark must not pass the gate —
// while extra measured runs are allowed, so new benchmark points can be
// added before the baseline is regenerated.
func CompareReports(got, want Report, tol Tolerances) []string {
	var diffs []string
	for _, s := range sections(got, want, tol.withDefaults()) {
		diffs = append(diffs, s.diff()...)
	}
	return diffs
}

// section is one report section's gate bound to its measured and
// baseline rows.
type section interface {
	diff() []string
	// idle names the conditional checks whose precondition holds on no
	// baseline row: gates that cannot fire.
	idle() []string
}

// sections lists every gated report section in diff order.
func sections(got, want Report, tol Tolerances) []section {
	return []section{
		// Standard runs: traffic, flops and virtual time.
		rows[ReportRun]{got.Runs, want.Runs, configKey, nil, []check[ReportRun]{
			{name: "msgs", count: func(r ReportRun) int64 { return r.Msgs }},
			{name: "inter-site msgs", count: func(r ReportRun) int64 { return r.InterSiteMsgs }},
			{name: "bytes", tol: tol.RelBytes, value: func(r ReportRun) float64 { return r.Bytes }},
			{name: "flops", tol: tol.RelFlops, value: func(r ReportRun) float64 { return r.Flops }},
			{name: "seconds", tol: tol.RelSeconds, value: func(r ReportRun) float64 { return r.Seconds }},
		}},
		// Closed-loop serving: job counts and per-job traffic.
		rows[ServeRun]{got.Serving, want.Serving,
			func(r ServeRun) string { return fmt.Sprintf("serve/clients=%d", r.Clients) }, nil,
			[]check[ServeRun]{
				{name: "jobs", count: func(r ServeRun) int64 { return r.Jobs }},
				{name: "msgs/job", count: func(r ServeRun) int64 { return r.MsgsPerJob }},
				{name: "inter-site msgs/job", count: func(r ServeRun) int64 { return r.InterSiteMsgsPerJob }},
				{name: "bytes/job", tol: tol.RelBytes, value: func(r ServeRun) float64 { return r.BytesPerJob }},
			}},
		// Ring-collector study: span counts are deterministic consequences
		// of the communication structure, and retention is bounded.
		rows[TraceOverheadRun]{optional(got.TraceOverhead), optional(want.TraceOverhead),
			func(TraceOverheadRun) string { return "trace_overhead" }, nil,
			[]check[TraceOverheadRun]{
				{name: "spans seen", count: func(r TraceOverheadRun) int64 { return r.SpansSeen }},
				{name: "spans retained", count: func(r TraceOverheadRun) int64 { return r.SpansRetained }},
				{must: func(r, _ TraceOverheadRun) string {
					if r.SpansRetained > r.RetainedBound {
						return fmt.Sprintf("retained %d exceeds bound %d", r.SpansRetained, r.RetainedBound)
					}
					return ""
				}},
			}},
		// Scale sweep: the event engine dispatches in a fixed total order,
		// so virtual seconds and traffic gate like any simulated run.
		// Baseline points above tol.ScaleMaxRanks are skipped (the PR
		// gate's budget filter); ScaLAPACK points record no continent
		// crossings (-1).
		rows[ScaleRun]{got.Scale, want.Scale,
			func(r ScaleRun) string {
				return fmt.Sprintf("scale/%s/%s/ranks=%d/n=%d", r.Algo, r.Tree, r.Ranks, r.N)
			},
			func(r ScaleRun) bool { return tol.ScaleMaxRanks <= 0 || r.Ranks <= tol.ScaleMaxRanks },
			[]check[ScaleRun]{
				{name: "msgs", count: func(r ScaleRun) int64 { return r.Msgs }},
				{name: "inter-site msgs", count: func(r ScaleRun) int64 { return r.InterSiteMsgs }},
				{name: "inter-continent msgs", count: func(r ScaleRun) int64 { return r.InterContinentMsgs },
					when: func(r ScaleRun) bool { return r.InterContinentMsgs >= 0 }},
				{name: "bytes", tol: tol.RelBytes, value: func(r ScaleRun) float64 { return r.Bytes }},
				{name: "seconds", tol: tol.RelSeconds, value: func(r ScaleRun) float64 { return r.Seconds }},
			}},
		// Open-loop load: arrivals come from the seeded trace, no admitted
		// job is ever lost, and per-job traffic is invariant because every
		// ladder level is built from equal-size partitions.
		rows[LoadRun]{got.Load, want.Load,
			func(r LoadRun) string { return fmt.Sprintf("load/%s/rate=%g", r.Trace, r.RatePerS) }, nil,
			[]check[LoadRun]{
				{name: "arrivals", count: func(r LoadRun) int64 { return int64(r.Arrivals) }},
				noneLost("admitted jobs", func(r LoadRun) int64 { return r.Lost }),
				{name: "msgs/job", count: func(r LoadRun) int64 { return r.MsgsPerJob }},
				{name: "inter-site msgs/job", count: func(r LoadRun) int64 { return r.InterSiteMsgsPerJob }},
				{name: "bytes/job", tol: tol.RelBytes, value: func(r LoadRun) float64 { return r.BytesPerJob }},
			}},
		// Streaming ingest: block and snapshot counts come from the fixed
		// schedule, no accepted block is ever lost, the partition size pins
		// the sharding, and per-snapshot traffic is exactly the reduction
		// tree over the partition's running R's.
		rows[StreamRun]{got.Stream, want.Stream,
			func(r StreamRun) string { return fmt.Sprintf("stream/rate=%g", r.RatePerS) }, nil,
			[]check[StreamRun]{
				{name: "blocks", count: func(r StreamRun) int64 { return int64(r.Blocks) }},
				{name: "snapshots", count: func(r StreamRun) int64 { return int64(r.Snapshots) }},
				{name: "partition size", count: func(r StreamRun) int64 { return int64(r.Procs) }},
				noneLost("accepted blocks", func(r StreamRun) int64 { return int64(r.Lost) }),
				{name: "msgs/snapshot", count: func(r StreamRun) int64 { return r.MsgsPerSnapshot }},
				{name: "inter-site msgs/snapshot",
					count: func(r StreamRun) int64 { return r.InterSiteMsgsPerSnapshot }},
				{name: "bytes/snapshot", tol: tol.RelBytes,
					value: func(r StreamRun) float64 { return r.BytesPerSnapshot }},
			}},
	}
}

// check is one gated column of a keyed row. Exactly one of count, value
// and must is set: count is matched exactly against the baseline, value
// within tol relatively, and must is any other condition, returning its
// drift text ("" when it holds). when, if set, limits the check to the
// baseline rows it holds on.
type check[R any] struct {
	name  string
	count func(R) int64
	value func(R) float64
	tol   float64
	must  func(got, want R) string
	when  func(want R) bool
}

func (c check[R]) diff(got, want R) string {
	switch {
	case c.when != nil && !c.when(want):
	case c.must != nil:
		return c.must(got, want)
	case c.count != nil:
		if g, w := c.count(got), c.count(want); g != w {
			return fmt.Sprintf("%s %d != baseline %d", c.name, g, w)
		}
	default:
		g, w := c.value(got), c.value(want)
		if off := math.Abs(g-w) / math.Max(1, math.Abs(w)); off > c.tol {
			return fmt.Sprintf("%s %g vs baseline %g (rel %.2g > %.2g)", c.name, g, w, off, c.tol)
		}
	}
	return ""
}

// noneLost is the invariant that a study dropped none of the work it
// accepted, whatever the baseline recorded.
func noneLost[R any](what string, lost func(R) int64) check[R] {
	return check[R]{must: func(r, _ R) string {
		if n := lost(r); n != 0 {
			return fmt.Sprintf("%d %s lost", n, what)
		}
		return ""
	}}
}

// rows gates a section's rows matched by key; gated, if set, limits the
// gate to the baseline rows it holds on.
type rows[R any] struct {
	got, want []R
	key       func(R) string
	gated     func(want R) bool
	checks    []check[R]
}

func (s rows[R]) diff() []string {
	byKey := make(map[string]R, len(s.got))
	for _, r := range s.got {
		byKey[s.key(r)] = r
	}
	var diffs []string
	for _, w := range s.want {
		if s.gated != nil && !s.gated(w) {
			continue
		}
		key := s.key(w)
		g, ok := byKey[key]
		if !ok {
			diffs = append(diffs, key+": present in baseline but not measured")
			continue
		}
		for _, c := range s.checks {
			if d := c.diff(g, w); d != "" {
				diffs = append(diffs, key+": "+d)
			}
		}
	}
	return diffs
}

func (s rows[R]) idle() []string {
	var out []string
	if s.gated != nil && !slices.ContainsFunc(s.want, s.gated) {
		out = append(out, "row filter")
	}
	for _, c := range s.checks {
		if c.when != nil && !slices.ContainsFunc(s.want, c.when) {
			out = append(out, c.name)
		}
	}
	return out
}

// optional is the one-row section of a study that a report may omit.
func optional[R any](r *R) []R {
	if r == nil {
		return nil
	}
	return []R{*r}
}
