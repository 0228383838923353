package mpi

import (
	"fmt"
	"math"
	"time"

	"gridqr/internal/grid"
)

// Fault injection for the simulated grid. The paper's platform is a
// federation of geographically distributed sites whose WAN links stall and
// whose nodes drop out mid-run — the very reason QCG-OMPI exists — so the
// simulator can be armed with a FaultPlan that delays messages, drops
// delivery attempts (forcing transport-level retransmission), or kills a
// rank outright at a chosen point of its execution.
//
// Every decision is a pure function of (plan seed, sender, receiver, tag,
// per-rank decision index), so two runs with the same plan produce
// bitwise-identical behaviour regardless of goroutine scheduling. A nil
// plan adds no overhead and changes nothing: the fault paths are only
// consulted when a plan is attached with WithFaults.

// RankFailedError is the typed error surfaced when an operation cannot
// complete because the peer rank is dead (killed by the fault plan) or
// permanently unreachable (every delivery attempt of a send was dropped).
type RankFailedError struct {
	Rank int    // the failed peer
	Op   string // "send" or "recv"
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed (detected during %s)", e.Rank, e.Op)
}

// TimeoutError is returned by receives governed by FaultPlan.RecvTimeout
// when no matching message arrived in time. In a
// grid, an expired timeout is indistinguishable from a dead or partitioned
// peer, so fault-tolerant algorithms treat it like a RankFailedError.
type TimeoutError struct {
	Rank int
	Tag  int
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("mpi: receive from rank %d (tag %d) timed out", e.Rank, e.Tag)
}

// FaultKind classifies a message-level fault rule.
type FaultKind int

const (
	// FaultDrop discards a delivery attempt; the transport retries with
	// backoff up to MaxRetries attempts, then reports the destination
	// failed.
	FaultDrop FaultKind = iota
	// FaultDelay adds extra latency to a message.
	FaultDelay
)

// AnyRank and AnyTag are wildcards for FaultRule matching.
const (
	AnyRank = -1
	AnyTag  = math.MinInt
)

// FaultRule matches point-to-point traffic and applies one fault kind
// probabilistically. Prob is evaluated with a deterministic hash per
// delivery attempt; Count caps how many times the rule fires per sending
// rank (0 = unlimited).
type FaultRule struct {
	Kind     FaultKind
	From, To int     // AnyRank matches every rank
	Tag      int     // AnyTag matches every tag (collective tags included)
	Prob     float64 // per-attempt firing probability in [0, 1]
	Delay    float64 // extra seconds, for FaultDelay
	Count    int     // max fires per sending rank; 0 = unlimited
}

func (r FaultRule) matches(from, to, tag int) bool {
	return (r.From == AnyRank || r.From == from) &&
		(r.To == AnyRank || r.To == to) &&
		(r.Tag == AnyTag || r.Tag == tag)
}

// FaultPlan is a seeded, immutable description of the faults to inject
// into one or more runs. Build it once, attach it to worlds with
// WithFaults; all mutable bookkeeping lives in the World, so the same plan
// replayed on a fresh world reproduces the same faults exactly.
type FaultPlan struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// MaxRetries is the number of delivery attempts per message before
	// the transport gives up and reports the peer failed (default 4).
	MaxRetries int
	// RetryBackoff is the extra delay charged per failed attempt,
	// multiplied by the attempt number (default 100 µs).
	RetryBackoff float64
	// RecvTimeout, when positive, bounds every blocking receive: a
	// receive that waits longer returns a TimeoutError instead of
	// hanging. It is wall-clock even in virtual mode — a liveness
	// safety net, not part of the simulated cost model.
	RecvTimeout time.Duration

	killAt map[int]int64
	rules  []FaultRule
}

// NewFaultPlan creates an empty plan with the given seed and defaults.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		Seed:         seed,
		MaxRetries:   4,
		RetryBackoff: 100e-6,
		killAt:       map[int]int64{},
	}
}

// Kill schedules rank to die immediately before its ops-th communication
// or compute operation (sends, receives and Kernel calls each count as
// one). Operation counts are per-rank program points, so the death site is
// deterministic.
func (p *FaultPlan) Kill(rank int, ops int) *FaultPlan {
	if ops < 0 {
		panic("mpi: Kill needs a non-negative operation index")
	}
	p.killAt[rank] = int64(ops)
	return p
}

// Drop adds a drop rule: matching delivery attempts are discarded with
// probability prob, at most count times per sending rank (0 = unlimited).
func (p *FaultPlan) Drop(from, to, tag int, prob float64, count int) *FaultPlan {
	p.rules = append(p.rules, FaultRule{Kind: FaultDrop, From: from, To: to, Tag: tag, Prob: prob, Count: count})
	return p
}

// Delay adds a delay rule: matching messages gain seconds of extra
// latency with probability prob, at most count times per sending rank.
func (p *FaultPlan) Delay(from, to, tag int, prob, seconds float64, count int) *FaultPlan {
	p.rules = append(p.rules, FaultRule{Kind: FaultDelay, From: from, To: to, Tag: tag, Prob: prob, Delay: seconds, Count: count})
	return p
}

// Kills returns the ranks with a scheduled kill, for plan introspection.
func (p *FaultPlan) Kills() []int {
	var out []int
	for r := range p.killAt {
		out = append(out, r)
	}
	return out
}

// faultHash is a splitmix64-style avalanche over the plan seed and the
// decision coordinates; decision indices are per-rank counters, so the
// stream each rank sees is independent of goroutine scheduling.
func faultHash(seed int64, from, to, tag int, decision uint64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^
		uint64(int64(from))<<40 ^ uint64(int64(to))<<24 ^
		uint64(int64(tag))<<8 ^ decision
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultUniform returns the decision hash mapped to [0, 1).
func faultUniform(seed int64, from, to, tag int, decision uint64) float64 {
	return float64(faultHash(seed, from, to, tag, decision)>>11) / (1 << 53)
}

// faultState is one rank's mutable fault bookkeeping; it is owned by the
// rank's goroutine during Run.
type faultState struct {
	ops       int64  // operations performed so far
	decisions uint64 // probabilistic decisions drawn so far
	fires     []int  // per-rule fire count
}

// FaultCounts tallies the faults a world actually injected during Run.
type FaultCounts struct {
	Drops       int64 // delivery attempts discarded (each implies a retransmit or a send failure)
	Delays      int64 // messages delayed
	Retransmits int64 // delivery attempts repeated after a drop
	Kills       int64 // ranks killed
}

// killSentinel is the panic value used to unwind a killed rank's
// goroutine; World.Run recognizes it and records a death instead of
// propagating a failure.
type killSentinel struct{ rank int }

// IsKillPanic reports whether a recovered panic value is the fault
// layer's kill sentinel. Long-running per-rank loops (like the job
// scheduler's dispatch loop) that recover job-level panics must re-panic
// kill sentinels so World.Run records the death instead of masking it.
func IsKillPanic(p any) bool {
	_, ok := p.(killSentinel)
	return ok
}

// PlanFromFailureRates derives a kill plan from the grid's per-site
// failure rates: each rank dies within the horizon with probability
// 1 − exp(−rate·horizon), at a deterministic operation index below
// maxOps. This turns the platform description's reliability figures into
// a concrete chaos scenario.
func PlanFromFailureRates(g *grid.Grid, seed int64, horizon float64, maxOps int) *FaultPlan {
	p := NewFaultPlan(seed)
	if maxOps < 1 {
		maxOps = 1
	}
	for rank := 0; rank < g.Procs(); rank++ {
		rate := g.Clusters[g.ClusterOf(rank)].FailureRate
		if rate <= 0 {
			continue
		}
		pDie := 1 - math.Exp(-rate*horizon)
		if faultUniform(seed, rank, rank, 0, uint64(rank)) < pDie {
			op := int(faultHash(seed, rank, rank, 1, uint64(rank)) % uint64(maxOps))
			p.Kill(rank, op)
		}
	}
	return p
}
