package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %g, want 3.5", got)
	}
	if r.Counter("msgs") != c {
		t.Fatal("Counter not idempotent per name")
	}
	g := r.Gauge("clock")
	g.Set(7)
	g.Set(4.25)
	if got := g.Value(); got != 4.25 {
		t.Fatalf("gauge = %g, want 4.25", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	samples := []float64{1e-10, 1e-6, 3e-6, 0.5, 2, 1e12}
	for _, v := range samples {
		h.Observe(v)
	}
	if h.Count() != int64(len(samples)) {
		t.Fatalf("count = %d", h.Count())
	}
	wantSum := 0.0
	for _, v := range samples {
		wantSum += v
	}
	if math.Abs(h.Sum()-wantSum) > 1e-9*wantSum {
		t.Fatalf("sum = %g, want %g", h.Sum(), wantSum)
	}
	if h.Max() != 1e12 {
		t.Fatalf("max = %g", h.Max())
	}
	// Quantile bounds must bracket the true order statistics.
	if q := h.Quantile(0.5); q < 3e-6 || q > 1 {
		t.Fatalf("p50 bound = %g out of range", q)
	}
	if q := h.Quantile(1); q < 1e8 {
		t.Fatalf("p100 bound = %g should land in the overflow bucket", q)
	}
	// Bucket boundaries are monotone.
	for i := 1; i < HistogramBuckets; i++ {
		if BucketUpper(i) <= BucketUpper(i-1) {
			t.Fatalf("bucket bounds not monotone at %d", i)
		}
	}
}

func TestHistogramRejectsBadSamples(t *testing.T) {
	var h Histogram
	h.Observe(2)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	if h.Count() != 1 || h.Sum() != 2 || h.Mean() != 2 {
		t.Fatalf("non-finite samples leaked in: count=%d sum=%g mean=%g", h.Count(), h.Sum(), h.Mean())
	}
	if q := h.Quantile(0.99); math.IsNaN(q) {
		t.Fatalf("quantile poisoned: %g", q)
	}
	h.Observe(-5) // clamps to zero: counted, but adds nothing to the sum
	if h.Count() != 2 || h.Sum() != 2 {
		t.Fatalf("negative sample mishandled: count=%d sum=%g", h.Count(), h.Sum())
	}
	if h.Max() != 2 {
		t.Fatalf("max = %g, want 2", h.Max())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var empty Histogram
	if got := empty.Quantiles([]float64{0.5, 0.99}); got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty histogram quantiles = %v, want zeros", got)
	}
	if got := empty.Quantiles(nil); len(got) != 0 {
		t.Fatalf("nil quantile list returned %v", got)
	}

	var one Histogram
	one.Observe(3e-3)
	qs := one.Quantiles([]float64{0.01, 0.5, 1})
	// With one sample every quantile lands in the same bucket, and the
	// bound must bracket the observation.
	for i, q := range qs {
		if q != qs[0] {
			t.Fatalf("one-sample quantiles disagree: %v", qs)
		}
		if q < 3e-3 || q > 3e-2 {
			t.Fatalf("one-sample quantile %d = %g does not bracket 3e-3", i, q)
		}
	}

	var h Histogram
	for _, v := range []float64{1e-10, 1e-6, 3e-6, 0.5, 2, 1e12} {
		h.Observe(v)
	}
	multi := h.Quantiles([]float64{0.5, 0.9, 1})
	// The single-pass answers must match the single-target scans.
	for i, q := range []float64{0.5, 0.9, 1} {
		if multi[i] != h.Quantile(q) {
			t.Fatalf("Quantiles(%g) = %g, Quantile = %g", q, multi[i], h.Quantile(q))
		}
	}
	for i := 1; i < len(multi); i++ {
		if multi[i] < multi[i-1] {
			t.Fatalf("quantile bounds not monotone: %v", multi)
		}
	}

	for _, bad := range [][]float64{{0.9, 0.5}, {0}, {1.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Quantiles(%v) did not panic", bad)
				}
			}()
			h.Quantiles(bad)
		}()
	}
}

// TestConcurrentMetrics exercises the lock-free update paths from many
// goroutines; `make race` runs this under the race detector.
func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("shared.counter")
			h := r.Histogram("shared.hist")
			g := r.Gauge("shared.gauge")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%7) * 1e-3)
				g.Set(float64(id))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != workers*perWorker {
		t.Fatalf("counter = %g, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared.hist").Count(); got != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", got, workers*perWorker)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Inc()
	r.Gauge("a").Set(1)
	r.Histogram("m").Observe(2)
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Name != "a" || snap[1].Name != "m" || snap[2].Name != "z" {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
	if !strings.Contains(r.String(), "histogram") {
		t.Fatal("String() should mention metric kinds")
	}
}
