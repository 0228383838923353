package mpi

import (
	"fmt"
	"strings"

	"gridqr/internal/telemetry"
)

// Execution tracing for virtual-mode worlds. The world records a
// structured telemetry.Trace — per-rank spans for every compute charge,
// message wait and algorithm phase, instantaneous send/recv/fault
// events, and flow identities binding each send to the receive that
// consumed it. The text Gantt chart below renders its spans; richer
// consumers use World.Trace directly for Chrome export, critical-path
// analysis and communication matrices.

// Traced enables unbounded trace collection on a virtual world: every
// span of every rank is kept, the right policy for post-hoc analysis
// (critical paths, exact comm matrices) of bounded-length runs.
func Traced() Option { return func(w *World) { w.traced = true } }

// TracedRing enables bounded ring-buffer trace collection: each rank
// retains a fixed head of its span stream plus a fixed-capacity ring of
// its most recent spans (see telemetry.RingConfig), so
// an always-on serving world traces with O(capacity) memory however long
// it runs, and the shards may be snapshotted live (TraceTail) while
// ranks are still recording. When both Traced and TracedRing are given,
// the full trace wins.
func TracedRing(cfg telemetry.RingConfig) Option {
	return func(w *World) { w.ringCfg = &cfg }
}

// Trace returns the structured trace recorded during Run (nil unless the
// world was created with Traced or TracedRing). The trace's Duration is
// stamped with the final virtual clock so analyses see trailing idle
// time. For ring-traced worlds this is a snapshot of the retained spans;
// evicted spans are absent, so flow edges may dangle —
// fine for timeline rendering, not for exact critical-path analysis.
func (w *World) Trace() *telemetry.Trace {
	switch {
	case w.trace != nil:
		w.trace.Duration = w.MaxClock()
		return w.trace
	case w.ring != nil:
		t := w.ring.Snapshot(0)
		t.Duration = w.MaxClock()
		return t
	}
	return nil
}

// TraceTail returns a snapshot holding at most the last n retained spans
// of each rank — the `/trace?last=N` export. Safe to call while the
// world is running; n <= 0 means everything retained. Nil on an untraced
// world.
func (w *World) TraceTail(n int) *telemetry.Trace {
	switch {
	case w.ring != nil:
		t := w.ring.Snapshot(n)
		t.Duration = w.MaxClock()
		return t
	case w.trace != nil:
		w.trace.Duration = w.MaxClock()
		if n <= 0 {
			return w.trace
		}
		out := telemetry.NewTrace(w.trace.Ranks())
		out.Sites, out.SiteNames, out.Duration = w.trace.Sites, w.trace.SiteNames, w.trace.Duration
		for r := 0; r < w.trace.Ranks(); r++ {
			track := w.trace.Track(r)
			if len(track) > n {
				track = track[len(track)-n:]
			}
			for _, s := range track {
				out.Add(s)
			}
		}
		return out
	}
	return nil
}

// TraceStats accounts the span stream: for ring worlds, how many spans
// were offered and are currently retained, and the retention bound; for
// fully traced worlds seen == retained and there is no bound. Zero on
// untraced worlds.
func (w *World) TraceStats() telemetry.RingStats {
	switch {
	case w.ring != nil:
		return w.ring.Stats()
	case w.trace != nil:
		var n int64
		for r := 0; r < w.trace.Ranks(); r++ {
			n += int64(len(w.trace.Track(r)))
		}
		return telemetry.RingStats{Seen: n, Retained: n}
	}
	return telemetry.RingStats{}
}

// Gantt renders the trace as one text row per rank over the given number
// of time buckets: '#' compute, '-' intra-cluster wait, '=' intra-node
// wait, '!' inter-cluster wait, ' ' idle/untracked. When a bucket holds a
// mix, the most time-consuming activity wins.
func (w *World) Gantt(buckets int) string {
	if w.collector == nil {
		return "trace disabled (create the world with mpi.Traced())\n"
	}
	total := w.MaxClock()
	if total <= 0 || buckets < 1 {
		return "empty trace\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "virtual time: %.6f s, one column = %.2e s\n", total, total/float64(buckets))
	fmt.Fprintf(&b, "legend: '#' compute, '!' inter-cluster wait, '-' intra-cluster wait, '=' intra-node wait\n")
	tr := w.Trace()
	for rank := 0; rank < tr.Ranks(); rank++ {
		// weight[bucket][category]
		weights := make([][4]float64, buckets)
		for _, s := range tr.Track(rank) {
			if s.End <= s.Start {
				continue
			}
			var cat int
			switch {
			case s.Kind == telemetry.SpanCompute:
				cat = 0
			case s.Kind != telemetry.SpanWait:
				continue // phases have no glyph; instants have no width
			case s.Link == telemetry.LinkInterCluster:
				cat = 1
			case s.Link == telemetry.LinkIntraCluster:
				cat = 2
			default:
				cat = 3
			}
			spread(weights, s.Start/total, s.End/total, cat)
		}
		row := make([]byte, buckets)
		glyphs := [4]byte{'#', '!', '-', '='}
		for i, ws := range weights {
			best, bestW := -1, 0.0
			for c, wgt := range ws {
				if wgt > bestW {
					best, bestW = c, wgt
				}
			}
			if best < 0 {
				row[i] = ' '
			} else {
				row[i] = glyphs[best]
			}
		}
		fmt.Fprintf(&b, "rank %3d |%s|\n", rank, string(row))
	}
	return b.String()
}

// spread adds an interval [s, e) (as fractions of the total time) into
// the bucket weights of one category.
func spread(weights [][4]float64, s, e float64, cat int) {
	n := float64(len(weights))
	lo := s * n
	hi := e * n
	for i := int(lo); i < len(weights) && float64(i) < hi; i++ {
		l, h := maxf(lo, float64(i)), minf(hi, float64(i+1))
		if h > l {
			weights[i][cat] += h - l
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
