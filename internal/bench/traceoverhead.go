package bench

import (
	"fmt"
	"math"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
	"gridqr/internal/telemetry"
)

// Tracing-overhead study: the always-on ring collector is only viable
// in a serving process if recording costs next to nothing, so this runs
// the standard TSQR benchmark point twice — untraced and ring-traced —
// and reports the wall-clock delta alongside the collector's span
// accounting. The span counts are deterministic consequences of the
// algorithm's communication structure and are gated exactly; the
// overhead percentage measures the host and is recorded, never gated.

// TraceOverheadM/N/Capacity/Head pin the measured configuration.
// Rounds repeats the factorization inside one world so each rank
// records hundreds of spans: a single TSQR reduction writes only a
// handful per rank and finishes in milliseconds, where timer noise
// would swamp the tracing cost being measured.
const (
	TraceOverheadM        = 1 << 20
	TraceOverheadN        = 64
	TraceOverheadRounds   = 96
	TraceOverheadReps     = 4
	TraceOverheadCapacity = 256
	TraceOverheadHead     = 32
)

// TraceOverheadRun records the traced-vs-untraced comparison.
type TraceOverheadRun struct {
	M     int `json:"m"`
	N     int `json:"n"`
	Procs int `json:"procs"`

	// Host wall-clock (best of 3), informational.
	UntracedSeconds float64 `json:"untraced_wall_seconds"`
	RingSeconds     float64 `json:"ring_wall_seconds"`
	// OverheadPct = (ring - untraced) / untraced × 100; may be slightly
	// negative under timer noise.
	OverheadPct float64 `json:"overhead_pct"`

	// Deterministic collector accounting (gated exactly).
	SpansSeen     int64 `json:"spans_seen"`
	SpansRetained int64 `json:"spans_retained"`
	RetainedBound int64 `json:"retained_bound"`
}

// TraceOverheadStudy measures ring-collector overhead on the full
// platform's TSQR benchmark point.
func TraceOverheadStudy(g *grid.Grid) TraceOverheadRun {
	cfg := telemetry.RingConfig{Capacity: TraceOverheadCapacity, Head: TraceOverheadHead}
	offsets := scalapack.BlockOffsets(TraceOverheadM, g.Procs())
	measure := func(ring bool) (float64, telemetry.RingStats) {
		opts := []mpi.Option{mpi.CostOnly()}
		if ring {
			opts = append(opts, mpi.TracedRing(cfg))
		}
		w := mpi.NewWorld(g, opts...)
		t0 := time.Now()
		w.Run(func(ctx *mpi.Ctx) {
			for round := 0; round < TraceOverheadRounds; round++ {
				core.Factorize(mpi.WorldComm(ctx),
					core.Input{M: TraceOverheadM, N: TraceOverheadN, Offsets: offsets},
					core.Config{Tree: core.TreeGrid})
			}
		})
		return time.Since(t0).Seconds(), w.TraceStats()
	}
	// Interleave untraced and ring-traced reps and keep the best of each,
	// so slow drift in the host (thermal, co-tenants) hits both sides
	// alike instead of biasing whichever ran second.
	base, traced := math.Inf(1), math.Inf(1)
	var stats telemetry.RingStats
	for rep := 0; rep < TraceOverheadReps; rep++ {
		if el, _ := measure(false); el < base {
			base = el
		}
		el, s := measure(true)
		if el < traced {
			traced = el
		}
		stats = s
	}
	return TraceOverheadRun{
		M: TraceOverheadM, N: TraceOverheadN, Procs: g.Procs(),
		UntracedSeconds: base,
		RingSeconds:     traced,
		OverheadPct:     (traced - base) / base * 100,
		SpansSeen:       stats.Seen,
		SpansRetained:   stats.Retained,
		RetainedBound:   stats.Bound,
	}
}

// FormatTraceOverhead renders the study for the -serve console output.
func FormatTraceOverhead(r TraceOverheadRun) string {
	return fmt.Sprintf(
		"== Ring-tracing overhead: TSQR M=%d N=%d on %d ranks ==\n"+
			"untraced %.3fs, ring-traced %.3fs: overhead %+.2f%% (target <= 5%%)\n"+
			"spans: %d seen, %d retained (bound %d, %.1f%% of stream)\n",
		r.M, r.N, r.Procs, r.UntracedSeconds, r.RingSeconds, r.OverheadPct,
		r.SpansSeen, r.SpansRetained, r.RetainedBound,
		100*float64(r.SpansRetained)/math.Max(1, float64(r.SpansSeen)))
}
