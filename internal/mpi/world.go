// Package mpi provides the message-passing runtime the distributed
// algorithms are written against: ranks, tagged point-to-point messages,
// communicators with binomial-tree collectives, and communicator
// splitting — the subset of MPI the paper's implementation uses.
//
// A World drives one rank body per processor, over one of two
// interchangeable engines: a goroutine-per-rank runtime (real time and
// data-bearing virtual runs) or a discrete-event simulator built on
// internal/simnet (cost-only virtual runs, where it lifts the practical
// ceiling from hundreds of ranks to tens of thousands). Two execution
// modes share all the algorithm code:
//
//   - real mode: messages move between goroutines and time is wall-clock
//     time, for in-process parallel execution and correctness tests;
//   - virtual mode: each rank carries a virtual clock advanced by a
//     LogGP-style cost model — computation adds flops/rate, a message
//     adds latency + bytes/bandwidth of the link class it traverses
//     (intra-node, intra-cluster, or inter-cluster per the attached
//     grid.Grid). Receiving sets the receiver clock to
//     max(local, arrival). This reproduces the paper's Equation 1 while
//     executing the actual algorithm, so message counts and volumes are
//     measured, not assumed.
//
// Virtual mode can additionally run cost-only (HasData() == false): local
// matrix blocks are never materialized and messages carry only sizes,
// which lets the Grid'5000-scale experiments (up to 33M-row matrices on
// 256 processes) run on one laptop-class machine.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridqr/internal/grid"
	"gridqr/internal/telemetry"
)

// World owns the mailboxes, clocks and counters of a set of ranks.
type World struct {
	n                int
	g                *grid.Grid
	virtual          bool
	hasData          bool
	forceGoroutines  bool
	eng              engine
	clocks           []float64 // virtual seconds, one per rank; owner-goroutine access during Run
	compute          []float64 // virtual seconds each rank spent computing
	wait             [][3]float64
	traced           bool
	ringCfg          *telemetry.RingConfig
	trace            *telemetry.Trace    // nil unless Traced(); unbounded per-rank tracks
	ring             *telemetry.Ring     // nil unless TracedRing(); bounded shards
	collector        telemetry.Collector // the armed span sink (trace or ring), nil when untraced
	sendSeq          []int64             // per-rank message sequence, the flow identity of each send
	rankCounts       []CounterSnapshot   // per-rank traffic/flop tallies; owner-goroutine access during Run
	metrics          *worldMetrics       // nil unless WithMetrics was given
	slowdown         []float64           // per-rank compute multiplier (1 = nominal)
	pendingSlowdowns []pendingSlowdown
	counters         Counters
	start            time.Time

	// Fault-injection state; plan is nil (and the rest unused) unless
	// WithFaults was given.
	plan        *FaultPlan
	fstate      []*faultState // per-rank, owner-goroutine access during Run
	dead        []atomic.Bool
	faultMu     sync.Mutex
	faultCounts FaultCounts

	// shared holds values computed once and read by every rank (world
	// communicator member tables, reduction schedules): structures that
	// would otherwise cost O(ranks) memory *per rank*, which is what
	// made runs beyond a few thousand ranks blow up quadratically.
	sharedMu sync.Mutex
	shared   map[string]any
}

// Option configures a World.
type Option func(*World)

// Virtual switches the world to virtual time using the attached grid's
// link and kernel-rate parameters.
func Virtual() Option { return func(w *World) { w.virtual = true } }

// CostOnly implies Virtual and additionally tells algorithms not to
// materialize or compute local data (Ctx.HasData reports false).
// Cost-only worlds run on the discrete-event engine unless
// GoroutineEngine is also given.
func CostOnly() Option {
	return func(w *World) { w.virtual = true; w.hasData = false }
}

// GoroutineEngine forces the goroutine-per-rank runtime even for a
// cost-only world. Rank bodies that block on Go primitives external to
// the world (channels fed by other goroutines, as the job scheduler's
// executors do) need it: the event engine schedules ranks cooperatively
// and a rank blocked outside the Comm API would stall the simulation.
func GoroutineEngine() Option { return func(w *World) { w.forceGoroutines = true } }

// Slowdown scales one rank's virtual compute rate by 1/factor — a
// background-loaded or slower machine, the volatility of the desktop
// grids the paper leaves as future work. factor 2 means twice as slow;
// it must be >= 1 and only affects virtual mode.
func Slowdown(rank int, factor float64) Option {
	return func(w *World) {
		if factor < 1 {
			panic("mpi: slowdown factor must be >= 1")
		}
		w.pendingSlowdowns = append(w.pendingSlowdowns, pendingSlowdown{rank, factor})
	}
}

type pendingSlowdown struct {
	rank   int
	factor float64
}

// worldMetrics holds pre-resolved registry handles so the per-message
// hot path is a handful of atomic adds, never a map lookup or a lock.
type worldMetrics struct {
	reg         *telemetry.Registry
	msgs        [3]*telemetry.Counter // per grid.LinkClass
	bytes       [3]*telemetry.Counter
	msgSize     [3]*telemetry.Histogram
	flops       *telemetry.Counter
	drops       *telemetry.Counter
	delays      *telemetry.Counter
	retransmits *telemetry.Counter
	kills       *telemetry.Counter
}

func newWorldMetrics(reg *telemetry.Registry) *worldMetrics {
	m := &worldMetrics{reg: reg}
	for c := 0; c < 3; c++ {
		cls := grid.LinkClass(c).String()
		m.msgs[c] = reg.Counter("mpi.msgs." + cls)
		m.bytes[c] = reg.Counter("mpi.bytes." + cls)
		m.msgSize[c] = reg.Histogram("mpi.msg_bytes." + cls)
	}
	m.flops = reg.Counter("mpi.flops")
	m.drops = reg.Counter("mpi.fault.drops")
	m.delays = reg.Counter("mpi.fault.delays")
	m.retransmits = reg.Counter("mpi.fault.retransmits")
	m.kills = reg.Counter("mpi.fault.kills")
	return m
}

// WithMetrics attaches a telemetry registry: every send, charge and
// injected fault updates named counters and per-link-class message-size
// histograms in it. Updates are lock-free atomics, so the option is
// cheap enough to leave on in measured runs.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(w *World) {
		if reg != nil {
			w.metrics = newWorldMetrics(reg)
		}
	}
}

// WithFaults arms the world with a fault-injection plan. The plan itself
// is immutable; all mutable bookkeeping lives in this world, so the same
// plan attached to a fresh world replays the exact same faults. A nil
// plan is accepted and means no faults.
func WithFaults(plan *FaultPlan) Option {
	return func(w *World) { w.plan = plan }
}

// NewWorld creates a world with one rank per processor of g. The grid is
// always used for rank placement and per-link-class message counting; its
// timing parameters matter only in virtual mode.
func NewWorld(g *grid.Grid, opts ...Option) *World {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("mpi: invalid grid: %v", err))
	}
	w := &World{n: g.Procs(), g: g, hasData: true}
	for _, o := range opts {
		o(w)
	}
	w.slowdown = make([]float64, w.n)
	for i := range w.slowdown {
		w.slowdown[i] = 1
	}
	for _, ps := range w.pendingSlowdowns {
		if ps.rank < 0 || ps.rank >= w.n {
			panic(fmt.Sprintf("mpi: slowdown rank %d out of range", ps.rank))
		}
		w.slowdown[ps.rank] = ps.factor
	}
	w.clocks = make([]float64, w.n)
	w.compute = make([]float64, w.n)
	w.wait = make([][3]float64, w.n)
	w.sendSeq = make([]int64, w.n)
	w.rankCounts = make([]CounterSnapshot, w.n)
	if w.traced || w.ringCfg != nil {
		sites := make([]int, w.n)
		for r := range sites {
			sites[r] = g.ClusterOf(r)
		}
		names := make([]string, len(g.Clusters))
		for i, c := range g.Clusters {
			names[i] = c.Name
		}
		if w.traced {
			w.trace = telemetry.NewTrace(w.n)
			w.trace.Sites = sites
			w.trace.SiteNames = names
			w.collector = w.trace
		} else {
			w.ring = telemetry.NewRing(w.n, *w.ringCfg)
			w.ring.Sites = sites
			w.ring.SiteNames = names
			w.collector = w.ring
		}
	}
	w.dead = make([]atomic.Bool, w.n)
	w.fstate = make([]*faultState, w.n)
	for i := range w.fstate {
		w.fstate[i] = &faultState{}
		if w.plan != nil {
			w.fstate[i].fires = make([]int, len(w.plan.rules))
		}
	}
	w.shared = make(map[string]any)
	if w.virtual && !w.hasData && !w.forceGoroutines {
		w.eng = newEventEngine(w)
	} else {
		w.eng = newGoroutineEngine(w)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Virtual reports whether the world runs on simulated time.
func (w *World) Virtual() bool { return w.virtual }

// EventDriven reports whether this world runs on the discrete-event
// engine (cost-only worlds without GoroutineEngine) rather than the
// goroutine-per-rank runtime.
func (w *World) EventDriven() bool { return w.eng.kind() == "event" }

// EngineStats returns the event engine's deterministic activity
// counters and high-water marks; zero-valued on the goroutine engine.
func (w *World) EngineStats() EngineStats {
	if e, ok := w.eng.(*eventEngine); ok {
		return e.engineStats()
	}
	return EngineStats{Engine: "goroutine"}
}

// Shared returns the value stored under key, building and caching it on
// first use. All ranks observe the same value, so build must be a pure
// deterministic function (no communication, no rank-dependent state)
// and callers must treat the result as immutable. It exists to share
// rank-independent structures — communicator member tables, reduction
// schedules, data layouts — that at tens of thousands of ranks must not
// be rebuilt (or worse, stored) once per rank.
func (w *World) Shared(key string, build func() any) any {
	w.sharedMu.Lock()
	defer w.sharedMu.Unlock()
	if v, ok := w.shared[key]; ok {
		return v
	}
	v := build()
	w.shared[key] = v
	return v
}

// Run executes fn on every rank and blocks until all complete. A panic
// on any rank is re-raised on the caller after all other ranks are done
// or stuck receivers are drained. A rank killed by the fault plan is not
// a panic: its body unwinds quietly, the rank is marked dead, and
// receivers blocked on it observe a RankFailedError. The execution
// engine — preemptive goroutines or the cooperative event scheduler —
// is chosen at NewWorld time and invisible here.
func (w *World) Run(fn func(*Ctx)) {
	w.start = time.Now()
	w.eng.run(fn)
}

// markDead flags a rank as failed and wakes every blocked receiver so it
// can re-check its sender's liveness.
func (w *World) markDead(rank int) {
	w.dead[rank].Store(true)
	w.faultMu.Lock()
	w.faultCounts.Kills++
	w.faultMu.Unlock()
	if w.metrics != nil {
		w.metrics.kills.Inc()
	}
	w.eng.rankDied(rank)
}

// RankDead reports whether a rank has been killed by the fault plan.
func (w *World) RankDead(rank int) bool { return w.dead[rank].Load() }

// DeadRanks returns the ranks killed so far, in rank order.
func (w *World) DeadRanks() []int {
	var out []int
	for r := range w.dead {
		if w.dead[r].Load() {
			out = append(out, r)
		}
	}
	return out
}

// FaultCounts returns a snapshot of the faults injected so far.
func (w *World) FaultCounts() FaultCounts {
	w.faultMu.Lock()
	defer w.faultMu.Unlock()
	return w.faultCounts
}

// MaxClock returns the virtual completion time: the maximum final clock
// across ranks. Zero in real mode.
func (w *World) MaxClock() float64 {
	var m float64
	for _, c := range w.clocks {
		if c > m {
			m = c
		}
	}
	return m
}

// Counters returns a snapshot of the message counters accumulated since
// the world was created.
func (w *World) Counters() CounterSnapshot { return w.counters.snapshot() }

// TimeBreakdown splits a rank's virtual time into computation and the
// idle gaps spent waiting for messages, per link class — the quantities
// behind the paper's Section V-E observation that communication time
// becomes negligible as the matrix grows.
type TimeBreakdown struct {
	Compute float64
	Wait    [3]float64 // indexed by grid.LinkClass
}

// Total returns compute plus all waits.
func (t TimeBreakdown) Total() float64 {
	return t.Compute + t.Wait[0] + t.Wait[1] + t.Wait[2]
}

// BreakdownOf returns one rank's time breakdown.
func (w *World) BreakdownOf(rank int) TimeBreakdown {
	return TimeBreakdown{Compute: w.compute[rank], Wait: w.wait[rank]}
}
