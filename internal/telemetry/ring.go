package telemetry

import "sync"

// Bounded span collection for always-on serving. The full Trace keeps
// every span of every rank — exact, but O(total spans): a 32k-rank world
// that never stops serving would grow without bound, and the measurement
// cost starts competing with the communication cost it measures. The
// Ring collector caps both: per rank it retains a fixed head (the spans
// from the start of the stream, where setup and tree formation live) and
// a fixed-capacity ring of the most recent spans (the tail, where the
// live behaviour is). Memory is O(ranks × (head + capacity)) regardless
// of run length, recording never allocates once a shard's ring is full,
// and the same span stream retains the same spans — so bounded traces
// are as reproducible as full ones.

// Collector is the span sink behind a traced world: the full Trace and
// the bounded Ring both implement it, so the runtime records spans the
// same way whichever policy is armed.
type Collector interface {
	// Add appends one span to its rank's track. Only the rank's own
	// goroutine may add spans for that rank.
	Add(s Span)
	// BeginPhase opens a nested phase span on a rank at the given time.
	BeginPhase(rank int, name string, now float64)
	// EndPhase closes the innermost open phase of a rank.
	EndPhase(rank int, now float64)
}

var (
	_ Collector = (*Trace)(nil)
	_ Collector = (*Ring)(nil)
)

// RingConfig bounds a Ring collector. The zero value selects the
// defaults noted on each field.
type RingConfig struct {
	// Capacity is the per-rank ring size in spans (default 256): the
	// tail window the collector retains. Memory is bounded by
	// ranks × (Head + Capacity) spans, however long the world runs.
	Capacity int
	// Head is how many spans from the start of each rank's stream are
	// always retained (default 32) — startup and tree formation survive
	// any amount of later traffic.
	Head int
}

func (c RingConfig) withDefaults() RingConfig {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.Head <= 0 {
		c.Head = 32
	}
	return c
}

// Ring is the bounded, sharded span collector: one shard per rank, each
// holding the retained head plus a fixed-capacity ring of tail spans. Each shard takes a private mutex per operation so a monitoring
// endpoint can snapshot a live run; the lock is uncontended on the
// recording path (only the rank's own goroutine writes its shard), so
// the per-span cost stays a lock/unlock and a struct copy.
type Ring struct {
	cfg RingConfig
	// Sites and SiteNames mirror Trace's optional topology attachment;
	// snapshots carry them over.
	Sites     []int
	SiteNames []string

	shards []ringShard
}

type ringShard struct {
	mu   sync.Mutex
	head []Span // first cfg.Head spans, kept forever
	ring []Span // grows to cfg.Capacity, then wraps
	next int    // oldest slot once len(ring) == Capacity
	seen int64  // spans offered
	open []Span // stack of open phase spans, pending until EndPhase
}

// NewRing creates a bounded collector for the given number of ranks.
// Shard buffers are allocated lazily as ranks record, so idle ranks of a
// large world cost nothing.
func NewRing(ranks int, cfg RingConfig) *Ring {
	return &Ring{cfg: cfg.withDefaults(), shards: make([]ringShard, ranks)}
}

// Ranks returns the number of shards.
func (t *Ring) Ranks() int { return len(t.shards) }

// Add records one span under the head/ring policy.
func (t *Ring) Add(s Span) {
	sh := &t.shards[s.Rank]
	sh.mu.Lock()
	switch {
	case sh.seen < int64(t.cfg.Head):
		sh.head = append(sh.head, s)
	case len(sh.ring) < t.cfg.Capacity:
		sh.ring = append(sh.ring, s)
	default:
		sh.ring[sh.next] = s
		sh.next++
		if sh.next == t.cfg.Capacity {
			sh.next = 0
		}
	}
	sh.seen++
	sh.mu.Unlock()
}

// BeginPhase opens a nested phase span; it is held off-ring until
// EndPhase closes it, so a long-lived phase cannot be evicted while
// still open.
func (t *Ring) BeginPhase(rank int, name string, now float64) {
	sh := &t.shards[rank]
	sh.mu.Lock()
	sh.open = append(sh.open, Span{
		Rank: rank, Kind: SpanPhase, Name: name, Start: now, End: now,
		Peer: -1, Link: LinkNone, FlowSeq: -1,
	})
	sh.mu.Unlock()
}

// EndPhase closes the innermost open phase and offers the completed span
// to the ring like any other.
func (t *Ring) EndPhase(rank int, now float64) {
	sh := &t.shards[rank]
	sh.mu.Lock()
	if len(sh.open) == 0 {
		sh.mu.Unlock()
		panic("telemetry: EndPhase without BeginPhase")
	}
	s := sh.open[len(sh.open)-1]
	sh.open = sh.open[:len(sh.open)-1]
	sh.mu.Unlock()
	s.End = now
	t.Add(s)
}

// retained returns one shard's held spans in recording order (head, then
// ring oldest→newest). Caller holds the shard lock.
func (sh *ringShard) retained() []Span {
	out := make([]Span, 0, len(sh.head)+len(sh.ring))
	out = append(out, sh.head...)
	out = append(out, sh.ring[sh.next:]...)
	out = append(out, sh.ring[:sh.next]...)
	return out
}

// Snapshot materializes the retained spans as a Trace, safe to call on a
// live run (each shard is locked only while copied). With lastN > 0 only
// the most recent lastN retained spans of each rank are included — the
// `/trace?last=N` tail export — otherwise everything retained. The
// result reuses every Trace consumer unchanged (Chrome export, comm
// matrix, Gantt).
func (t *Ring) Snapshot(lastN int) *Trace {
	out := NewTrace(len(t.shards))
	out.Sites = t.Sites
	out.SiteNames = t.SiteNames
	for r := range t.shards {
		sh := &t.shards[r]
		sh.mu.Lock()
		spans := sh.retained()
		sh.mu.Unlock()
		if lastN > 0 && len(spans) > lastN {
			spans = spans[len(spans)-lastN:]
		}
		for _, s := range spans {
			out.Add(s)
		}
	}
	return out
}

// RingStats accounts a ring's stream: how much was offered, how much is
// currently held, and the most it can hold.
type RingStats struct {
	// Seen is the total spans offered across all ranks.
	Seen int64 `json:"seen"`
	// Retained is how many spans are held right now.
	Retained int64 `json:"retained"`
	// Bound is the hard cap on Retained: ranks × (Head + Capacity).
	// Open-phase spans are additionally bounded by the deepest phase
	// nesting, which the algorithms keep O(1). Zero for a full trace,
	// which keeps every span.
	Bound int64 `json:"bound"`
}

// Stats returns a consistent-enough live snapshot of the stream
// accounting (each shard is read under its lock).
func (t *Ring) Stats() RingStats {
	st := RingStats{Bound: int64(len(t.shards)) * int64(t.cfg.Head+t.cfg.Capacity)}
	for r := range t.shards {
		sh := &t.shards[r]
		sh.mu.Lock()
		st.Seen += sh.seen
		st.Retained += int64(len(sh.head) + len(sh.ring) + len(sh.open))
		sh.mu.Unlock()
	}
	return st
}
