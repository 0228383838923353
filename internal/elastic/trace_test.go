package elastic

import (
	"math"
	"testing"
	"time"
)

// collect drains up to max gaps from a trace.
func collect(tr Trace, max int) []time.Duration {
	var gaps []time.Duration
	for len(gaps) < max {
		gap, ok := tr.Next()
		if !ok {
			break
		}
		gaps = append(gaps, gap)
	}
	return gaps
}

func gapsEqual(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTraceDeterminism(t *testing.T) {
	mk := []func() Trace{
		func() Trace { return Poisson(100, 50, 7) },
		func() Trace { return Bursty(100, 4, 10, 50, 7) },
		func() Trace { return Diurnal(100, 0.8, time.Second, 50, 7) },
	}
	for _, f := range mk {
		a, b := collect(f(), 100), collect(f(), 100)
		if len(a) != 50 {
			t.Fatalf("%s: got %d gaps, want 50", f().Name(), len(a))
		}
		if !gapsEqual(a, b) {
			t.Errorf("%s: same seed produced different traces", f().Name())
		}
		for i, g := range a {
			if g <= 0 {
				t.Fatalf("%s: gap %d not positive: %v", f().Name(), i, g)
			}
		}
	}
	if gapsEqual(collect(Poisson(100, 50, 7), 100), collect(Poisson(100, 50, 8), 100)) {
		t.Error("different seeds produced identical traces")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	const rate, n = 200.0, 4000
	gaps := collect(Poisson(rate, n, 1), n)
	var sum time.Duration
	for _, g := range gaps {
		sum += g
	}
	mean := sum.Seconds() / float64(n)
	if math.Abs(mean*rate-1) > 0.1 {
		t.Errorf("mean gap %v s at rate %v: off by more than 10%%", mean, rate)
	}
}

func TestBurstyPhases(t *testing.T) {
	// With burst factor 8, on-phase gaps are ~64x shorter than off-phase
	// gaps; compare phase means to confirm the alternation is real.
	const perPhase = 50
	gaps := collect(Bursty(100, 8, perPhase, 4*perPhase, 3), 4*perPhase)
	phase := func(k int) float64 {
		var s time.Duration
		for _, g := range gaps[k*perPhase : (k+1)*perPhase] {
			s += g
		}
		return s.Seconds()
	}
	if on, off := phase(0), phase(1); on*4 > off {
		t.Errorf("on-phase total %v not clearly shorter than off-phase %v", on, off)
	}
}

func TestDiurnalModulation(t *testing.T) {
	// Rate swings ±80% over 1s of trace time: arrivals cluster in the
	// crest and spread in the trough, so consecutive 100-gap windows must
	// differ substantially in total duration.
	gaps := collect(Diurnal(1000, 0.8, time.Second, 1000, 5), 1000)
	minW, maxW := math.Inf(1), 0.0
	for w := 0; w+100 <= len(gaps); w += 100 {
		var s time.Duration
		for _, g := range gaps[w : w+100] {
			s += g
		}
		minW = math.Min(minW, s.Seconds())
		maxW = math.Max(maxW, s.Seconds())
	}
	if maxW < 1.5*minW {
		t.Errorf("diurnal windows too uniform: min %v max %v", minW, maxW)
	}
}
