// Package telemetry is the measurement layer of the simulator: a
// lock-cheap metrics registry (counters, gauges, histograms with fixed
// log-spaced buckets) and a structured span/event tracer with
// happens-before edges, plus the analyses built on top of them — a
// Chrome/Perfetto trace_event exporter, a critical-path analyzer that
// decomposes the longest path of a run into compute, intra-site
// communication, inter-site communication and idle time, and a per-site
// communication matrix.
//
// The package deliberately depends on nothing but the standard library:
// the mpi runtime, the dense kernels and the experiment harness all feed
// it, and every later performance PR regresses against what it measures.
// Span timestamps are whatever clock the producer uses — the simulated
// worlds record *virtual* seconds, so a trace of a 33M-row run on 256
// simulated processes is exact even though it was produced in
// milliseconds of wall time.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing float64 accumulator. Updates are
// a single atomic CAS loop — cheap enough for per-message hot paths.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by v (v must be >= 0).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a last-write-wins float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistogramBuckets is the number of log-spaced buckets every histogram
// uses; together with histMin/histGrowth they cover 1e-9 .. ~1e9 with
// two buckets per decade, a range wide enough for both message bytes and
// kernel seconds.
const HistogramBuckets = 36

const (
	histMin    = 1e-9
	histGrowth = 10.0 // per pair of buckets (sqrt(10) per bucket)
)

// Histogram accumulates observations into fixed log-spaced buckets.
// Observing and reading are lock-free; buckets, count and sum are
// atomics, so concurrent ranks can observe without serializing.
type Histogram struct {
	buckets [HistogramBuckets]atomic.Int64
	count   atomic.Int64
	sum     Counter
	maxBits atomic.Uint64 // max observation, as float bits
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v float64) int {
	if !(v > histMin) {
		return 0
	}
	i := int(math.Floor(2 * math.Log10(v/histMin)))
	if i < 0 {
		i = 0
	}
	if i >= HistogramBuckets {
		i = HistogramBuckets - 1
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i.
func BucketUpper(i int) float64 {
	return histMin * math.Pow(histGrowth, float64(i+1)/2)
}

// Observe records one sample. Non-finite samples are dropped and
// negatives clamp to zero, so a stray NaN or underflow cannot poison
// Sum, Mean or Quantile for the whole histogram.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Max returns the largest observation (0 before any Observe).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Mean returns the average observation (0 before any Observe).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) from
// the bucket boundaries.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	var seen int64
	for i := 0; i < HistogramBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= target {
			return BucketUpper(i)
		}
	}
	return BucketUpper(HistogramBuckets - 1)
}

// Quantiles returns upper bounds for several quantiles in one pass over
// the buckets. qs must be sorted ascending, each in (0, 1]; the result
// is aligned with qs. With no observations every entry is 0 — the same
// convention as Quantile. One bucket scan serves all targets, so a
// latency report asking for p50/p90/p99 costs the same as asking for
// one.
func (h *Histogram) Quantiles(qs []float64) []float64 {
	out := make([]float64, len(qs))
	n := h.count.Load()
	if n == 0 || len(qs) == 0 {
		return out
	}
	targets := make([]int64, len(qs))
	for i, q := range qs {
		if i > 0 && q < qs[i-1] {
			panic("telemetry: Quantiles wants sorted quantiles")
		}
		if q <= 0 || q > 1 {
			panic("telemetry: quantile out of (0, 1]")
		}
		targets[i] = int64(math.Ceil(q * float64(n)))
	}
	var seen int64
	next := 0
	for i := 0; i < HistogramBuckets && next < len(qs); i++ {
		seen += h.buckets[i].Load()
		for next < len(qs) && seen >= targets[next] {
			out[next] = BucketUpper(i)
			next++
		}
	}
	for ; next < len(qs); next++ {
		out[next] = BucketUpper(HistogramBuckets - 1)
	}
	return out
}

// Labels attach dimensions to a metric series: the same base name with
// different label sets is a family of independent series (per site, per
// job kind, per rejection reason, ...). A nil or empty map is the plain
// unlabeled series.
type Labels map[string]string

// renderLabels serializes a label set canonically (sorted by key) in the
// exposition syntax, or "" for no labels.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// seriesID is the parsed identity of one registered series, kept so the
// Prometheus exposition can group families without re-parsing keys.
type seriesID struct {
	base   string
	labels Labels
}

// BucketCounts returns the per-bucket observation counts (index i holds
// observations ≤ BucketUpper(i); the last bucket also absorbs anything
// larger).
func (h *Histogram) BucketCounts() [HistogramBuckets]int64 {
	var out [HistogramBuckets]int64
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// String renders the histogram for humans: count/mean/max, the standard
// latency quantiles, and every populated bucket with its boundary —
// `≤3.16e-05: 42` instead of a raw bucket index.
func (h *Histogram) String() string {
	var b strings.Builder
	n := h.Count()
	fmt.Fprintf(&b, "count %d  sum %.6g  mean %.6g  max %.6g", n, h.Sum(), h.Mean(), h.Max())
	if n == 0 {
		return b.String()
	}
	q := h.Quantiles([]float64{0.5, 0.9, 0.99, 0.999})
	fmt.Fprintf(&b, "\n  p50 ≤ %.3g  p90 ≤ %.3g  p99 ≤ %.3g  p999 ≤ %.3g", q[0], q[1], q[2], q[3])
	b.WriteString("\n  buckets:")
	for i, c := range h.BucketCounts() {
		if c > 0 {
			fmt.Fprintf(&b, " ≤%.3g: %d", BucketUpper(i), c)
		}
	}
	return b.String()
}

// Registry names and owns a set of metrics. Lookup takes a mutex but is
// meant to happen once per instrument site (resolve the handle, then
// update through atomics); the update path never locks.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	series     map[string]seriesID // rendered key -> identity
	help       map[string]string   // base name -> # HELP text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		series:     map[string]seriesID{},
		help:       map[string]string{},
	}
}

// SetHelp registers the # HELP text the Prometheus exposition emits for
// a metric family (by base name, without labels).
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// note records a series identity under the lock.
func (r *Registry) note(key, base string, labels Labels) {
	if _, ok := r.series[key]; ok {
		return
	}
	var cp Labels
	if len(labels) > 0 {
		cp = make(Labels, len(labels))
		for k, v := range labels {
			cp[k] = v
		}
	}
	r.series[key] = seriesID{base: base, labels: cp}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return r.CounterL(name, nil) }

// CounterL returns the counter series with the given base name and
// labels, creating it on first use.
func (r *Registry) CounterL(name string, labels Labels) *Counter {
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
		r.note(key, name, labels)
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeL(name, nil) }

// GaugeL returns the gauge series with the given base name and labels,
// creating it on first use.
func (r *Registry) GaugeL(name string, labels Labels) *Gauge {
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
		r.note(key, name, labels)
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram { return r.HistogramL(name, nil) }

// HistogramL returns the histogram series with the given base name and
// labels, creating it on first use.
func (r *Registry) HistogramL(name string, labels Labels) *Histogram {
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[key]
	if !ok {
		h = &Histogram{}
		r.histograms[key] = h
		r.note(key, name, labels)
	}
	return h
}

// MetricValue is one exported sample of a registry dump.
type MetricValue struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // "counter", "gauge" or "histogram"
	Value float64 `json:"value"`
	// Histogram extras (zero otherwise).
	Count int64   `json:"count,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	Max   float64 `json:"max,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Snapshot returns every metric's current value sorted by name; the
// histogram Value field is the sum of observations.
func (r *Registry) Snapshot() []MetricValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricValue, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out = append(out, MetricValue{Name: name, Kind: "counter", Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, MetricValue{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range r.histograms {
		out = append(out, MetricValue{Name: name, Kind: "histogram", Value: h.Sum(),
			Count: h.Count(), Mean: h.Mean(), Max: h.Max(), P99: h.Quantile(0.99)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the snapshot as an aligned text table.
func (r *Registry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %-10s %14s %10s %12s %12s\n", "metric", "kind", "value", "count", "mean", "max")
	for _, m := range r.Snapshot() {
		if m.Kind == "histogram" {
			fmt.Fprintf(&b, "%-40s %-10s %14.6g %10d %12.6g %12.6g\n",
				m.Name, m.Kind, m.Value, m.Count, m.Mean, m.Max)
		} else {
			fmt.Fprintf(&b, "%-40s %-10s %14.6g\n", m.Name, m.Kind, m.Value)
		}
	}
	return b.String()
}

// Dump renders the snapshot table followed by the full per-histogram
// detail (bucket boundaries and quantiles) — the human-readable registry
// dump behind the -metrics flag.
func (r *Registry) Dump() string {
	var b strings.Builder
	b.WriteString(r.String())
	r.mu.Lock()
	names := make([]string, 0, len(r.histograms))
	for name := range r.histograms {
		names = append(names, name)
	}
	hists := make([]*Histogram, len(names))
	sort.Strings(names)
	for i, name := range names {
		hists[i] = r.histograms[name]
	}
	r.mu.Unlock()
	for i, name := range names {
		fmt.Fprintf(&b, "\n%s\n  %s\n", name, hists[i].String())
	}
	return b.String()
}

// defaultRegistry backs the package-level kernel instrumentation; blas
// and lapack report into it when kernel metrics are enabled.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the dense kernels report to.
func Default() *Registry { return defaultRegistry }

// kernelMetricsOn gates the kernel instrumentation; off (the default) a
// kernel entry costs one atomic load and nothing else.
var kernelMetricsOn atomic.Bool

// EnableKernelMetrics switches the blas/lapack kernel instrumentation on
// or off. With it on, every instrumented kernel records its wall-clock
// duration and flop count into Default(), so effective Gflop/s is
// measured from real executions rather than modeled.
func EnableKernelMetrics(on bool) { kernelMetricsOn.Store(on) }

// ObserveKernel records one kernel execution (name, flop count, elapsed
// wall-clock seconds) into the default registry: a duration histogram, a
// flop counter, and a call counter per kernel. It is a no-op unless
// EnableKernelMetrics(true) was called.
func ObserveKernel(kernel string, flopCount, seconds float64) {
	if !kernelMetricsOn.Load() {
		return
	}
	defaultRegistry.Histogram("kernel." + kernel + ".seconds").Observe(seconds)
	defaultRegistry.Counter("kernel." + kernel + ".flops").Add(flopCount)
	defaultRegistry.Counter("kernel." + kernel + ".calls").Inc()
}

// TimeKernel starts timing one kernel execution and returns its closer,
// for use as `defer telemetry.TimeKernel("dgemm", fl)()` at a kernel's
// entry. When kernel metrics are off the cost is one atomic load and a
// no-op closure.
func TimeKernel(kernel string, flopCount float64) func() {
	if !kernelMetricsOn.Load() {
		return func() {}
	}
	start := time.Now()
	return func() { ObserveKernel(kernel, flopCount, time.Since(start).Seconds()) }
}

// KernelGflops reports the measured effective rate of one kernel from
// the default registry: total flops over total seconds, in Gflop/s (0 if
// the kernel never ran or took no measurable time).
func KernelGflops(kernel string) float64 {
	sec := defaultRegistry.Histogram("kernel." + kernel + ".seconds").Sum()
	if sec <= 0 {
		return 0
	}
	return defaultRegistry.Counter("kernel."+kernel+".flops").Value() / sec / 1e9
}
