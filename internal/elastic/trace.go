// Package elastic is the serving control plane grown around the
// scheduler: SLO-driven autoscaling of the partition plan (steered by
// the perfmodel predictor, each level installed over the live ranks) and
// the arrival traces of the open-loop load harness. Open-loop means the
// generators emit arrivals on their own clock — a client that does not
// wait for completions — which is what exposes the saturation knee that
// closed-loop clients hide.
package elastic

import (
	"math"
	"math/rand"
	"time"
)

// Trace is one arrival process: Next returns the gap to wait before the
// next arrival, and false when the trace is exhausted. Implementations
// are deterministic for a given construction (seeded PRNGs), so a load
// run is replayable.
type Trace interface {
	Name() string
	Next() (time.Duration, bool)
}

// poisson emits n exponentially distributed gaps at a constant rate —
// the memoryless baseline arrival process.
type poisson struct {
	rng  *rand.Rand
	rate float64
	left int
}

// Poisson returns a trace of n arrivals at ratePerS with exponential
// inter-arrival gaps.
func Poisson(ratePerS float64, n int, seed int64) Trace {
	if ratePerS <= 0 {
		panic("elastic: Poisson rate must be positive")
	}
	return &poisson{rng: rand.New(rand.NewSource(seed)), rate: ratePerS, left: n}
}

func (p *poisson) Name() string { return "poisson" }

func (p *poisson) Next() (time.Duration, bool) {
	if p.left <= 0 {
		return 0, false
	}
	p.left--
	return expGap(p.rng, p.rate), true
}

// bursty alternates an on-phase at burst·rate with an off-phase at
// rate/burst, same mean rate — the adversarial arrival pattern for an
// autoscaler, since the queue grows during bursts faster than any
// averaged signal suggests.
type bursty struct {
	rng   *rand.Rand
	rate  float64
	burst float64
	phase int // arrivals left in the current phase
	on    bool
	perPh int
	left  int
}

// Bursty returns a trace of n arrivals whose instantaneous rate
// alternates between burst·ratePerS and ratePerS/burst every perPhase
// arrivals; the long-run mean stays near ratePerS.
func Bursty(ratePerS, burst float64, perPhase, n int, seed int64) Trace {
	if ratePerS <= 0 || burst < 1 || perPhase < 1 {
		panic("elastic: bad Bursty parameters")
	}
	return &bursty{
		rng: rand.New(rand.NewSource(seed)), rate: ratePerS, burst: burst,
		on: true, perPh: perPhase, phase: perPhase, left: n,
	}
}

func (b *bursty) Name() string { return "bursty" }

func (b *bursty) Next() (time.Duration, bool) {
	if b.left <= 0 {
		return 0, false
	}
	b.left--
	if b.phase == 0 {
		b.on = !b.on
		b.phase = b.perPh
	}
	b.phase--
	r := b.rate / b.burst
	if b.on {
		r = b.rate * b.burst
	}
	return expGap(b.rng, r), true
}

// diurnal modulates a Poisson process sinusoidally over a compressed
// "day": rate(t) = base·(1 + amp·sin(2πt/period)). It is the synthetic
// stand-in for replaying a production diurnal curve.
type diurnal struct {
	rng    *rand.Rand
	base   float64
	amp    float64
	period float64
	t      float64 // virtual trace clock, seconds
	left   int
}

// Diurnal returns a trace of n arrivals whose rate swings ±amp around
// ratePerS over the given period. amp must lie in [0, 1).
func Diurnal(ratePerS, amp float64, period time.Duration, n int, seed int64) Trace {
	if ratePerS <= 0 || amp < 0 || amp >= 1 || period <= 0 {
		panic("elastic: bad Diurnal parameters")
	}
	return &diurnal{
		rng: rand.New(rand.NewSource(seed)), base: ratePerS, amp: amp,
		period: period.Seconds(), left: n,
	}
}

func (d *diurnal) Name() string { return "diurnal" }

func (d *diurnal) Next() (time.Duration, bool) {
	if d.left <= 0 {
		return 0, false
	}
	d.left--
	r := d.base * (1 + d.amp*math.Sin(2*math.Pi*d.t/d.period))
	gap := expGap(d.rng, r)
	d.t += gap.Seconds()
	return gap, true
}

// expGap draws one exponential inter-arrival gap at the given rate,
// truncated to whole microseconds and floored at one.
func expGap(rng *rand.Rand, rate float64) time.Duration {
	gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	return gap.Truncate(time.Microsecond) + time.Microsecond
}
