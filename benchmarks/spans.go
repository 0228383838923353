package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The benchmark's own tracer: one span around every call the harness
// makes into a layer. Spans live in memory and are written out when the
// run ends. A nil *tracer records nothing, which is how the untraced run
// shares the workload code.

// span is one timed call. Parent is the id of the span that caused it
// (-1 for a root); spans of one op share Op (-1 for replayed pieces).
type span struct {
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int
	Op     int
	Lane   int // rendering row: 0 the caller, 1+r rank r or client r
	// Derived marks a span that is not a clocked call; see tracer.derived.
	Derived bool
}

type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

const noSpan = -1

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op, lane int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op, Lane: lane})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// derived records a span whose interval the harness did not clock as a
// call: a duration the program reported (JobResult.QueueWait), or an
// interval that began at a scheduled time (an open-loop job's due time).
// It returns the span's id so that it can parent others.
func (t *tracer) derived(name string, parent, op, lane int, start time.Time, d time.Duration) int {
	if t == nil {
		return noSpan
	}
	s := start.Sub(t.epoch)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d, Parent: parent, Op: op, Lane: lane, Derived: true})
	t.mu.Unlock()
	return id
}

// adopt makes parent the parent of the given spans.
func (t *tracer) adopt(parent int, ids ...int) {
	t.mu.Lock()
	for _, id := range ids {
		t.spans[id].Parent = parent
	}
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration in seconds.
func (t *tracer) timed(name string, parent, op, lane int, fn func()) float64 {
	id := t.begin(name, parent, op, lane)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d.Seconds()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// snapshot copies the spans recorded so far, with their self times.
func (t *tracer) snapshot() ([]span, []time.Duration) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	return spans, selfTimes(spans)
}

// selfRow is one span name's share of the traced time.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	SelfP50 float64 `json:"self_ms_p50"`
}

// selfTable sums duration and self time per span name, closed spans only.
func (t *tracer) selfTable() []selfRow {
	if t == nil {
		return nil
	}
	spans, self := t.snapshot()
	byName := make(map[string]*selfRow)
	samples := make(map[string][]float64)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		r := byName[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.TotalMs += float64(s.End-s.Start) / 1e6
		r.SelfMs += float64(self[i]) / 1e6
		samples[s.Name] = append(samples[s.Name], float64(self[i])/1e6)
	}
	rows := make([]selfRow, 0, len(byName))
	for name, r := range byName {
		r.SelfP50 = median(samples[name])
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].SelfMs > rows[b].SelfMs })
	return rows
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which chrome://tracing and ui.perfetto.dev load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// layerOf is the module prefix of a span name ("sched.Submit" → "sched").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// writeChrome writes the spans as a Chrome trace.
func (t *tracer) writeChrome(path string) error {
	spans, self := t.snapshot()
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{
				"id": i, "parent": s.Parent, "op": s.Op,
				"self_us": float64(self[i]) / 1e3, "derived": s.Derived,
			},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
