// Package simnet is a discrete-event execution core for cost-only
// simulations: n ranks run as cooperatively scheduled coroutines over a
// virtual-time event queue instead of n freely preempted goroutines.
//
// Each rank body is a runtime coroutine (iter.Pull): dispatching a proc
// switches to its stack in place and Park switches back, with no trip
// through the Go scheduler, so exactly one proc runs at any moment and
// the rest are suspended where they parked. The scheduler dispatches
// runnable procs in (virtual clock, id) order from a binary heap, so an
// entire run is a deterministic sequence of switches with no lock
// contention, no condition-variable broadcast storms and no Go-scheduler
// thrashing — the costs that cap the goroutine runtime at a few hundred
// ranks. Queue memory is O(runnable + parked registrations), never
// O(ranks × mailbox capacity).
//
// The package knows nothing about messages: a transport (internal/mpi's
// event engine) layers matching on top using Park/Unpark for blocking
// receives and OnIdle for deterministic timeout/deadlock resolution when
// no proc can run.
package simnet

import (
	"fmt"
	"iter"
	"sort"
)

// State of one proc, visible to tests and the transport layer.
type State int8

const (
	StateReady   State = iota // in the run heap
	StateRunning              // the single executing proc
	StateParked               // blocked until Unpark
	StateDone                 // body returned
)

func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateParked:
		return "parked"
	case StateDone:
		return "done"
	}
	return "?"
}

// Stats counts scheduler activity; all values are deterministic for a
// deterministic workload, so tests can pin them.
type Stats struct {
	Dispatches   int64 // proc handoffs (one per slice a proc runs)
	Parks        int64 // blocking yields
	Unparks      int64 // parked procs made runnable
	IdleResolves int64 // OnIdle invocations that made progress
	PeakRunnable int   // high-water mark of the run heap
}

// TraceEvent is one scheduler transition, exposed to the property tests
// through SetTraceHook.
type TraceEvent struct {
	Kind string // "dispatch", "park", "unpark", "done", "idle"
	ID   int    // proc id (-1 for idle)
	Key  float64
}

// unwind is the panic value Park raises in a suspended proc whose
// coroutine Run stops; Run recovers exactly this value.
type unwind struct{}

type proc struct {
	id    int
	key   float64 // clock at heap insertion; frozen while not running
	state State
	next  func() (struct{}, bool) // runs the body until it parks (true) or returns
	stop  func()
	yield func(struct{}) bool // Park's switch back to Run
}

// Scheduler coordinates n cooperatively scheduled procs.
type Scheduler struct {
	clock   func(id int) float64 // the transport's per-proc virtual clock
	procs   []*proc
	heap    []*proc
	running *proc
	onIdle  func() bool
	live    int
	stats   Stats
	trace   func(TraceEvent)
}

// New creates a scheduler for n procs whose virtual clocks are read
// through clock (called only for procs that are not running).
func New(n int, clock func(id int) float64) *Scheduler {
	if n <= 0 {
		panic("simnet: need at least one proc")
	}
	s := &Scheduler{clock: clock}
	s.procs = make([]*proc, n)
	for i := range s.procs {
		s.procs[i] = &proc{id: i}
	}
	return s
}

// OnIdle installs the transport's resolver, called when no proc is
// runnable but parked procs remain. It must either make progress
// (typically Unpark one parked proc after arming an error for it, the
// deterministic equivalent of a wall-clock timeout) and return true, or
// return false — in which case the scheduler panics with a deadlock
// report.
func (s *Scheduler) OnIdle(f func() bool) { s.onIdle = f }

// SetTraceHook installs a per-transition observer for property tests.
func (s *Scheduler) SetTraceHook(f func(TraceEvent)) { s.trace = f }

// Stats returns the activity counters accumulated so far.
func (s *Scheduler) Stats() Stats { return s.stats }

// Running returns the id of the executing proc, or -1 between slices.
func (s *Scheduler) Running() int {
	if s.running == nil {
		return -1
	}
	return s.running.id
}

// StateOf reports a proc's scheduling state.
func (s *Scheduler) StateOf(id int) State { return s.procs[id].state }

// Runnable returns the current run-heap size (for leak assertions).
func (s *Scheduler) Runnable() int { return len(s.heap) }

// Run executes body(id) for every proc to completion. It must be called
// exactly once; it blocks until all procs are done. A panic escaping a
// body is re-raised on the caller (transports are expected to recover
// domain-level panics themselves and only let programming errors
// through). When Run panics — a deadlock or a re-raised body panic — it
// first unwinds every unfinished proc, so no coroutine outlives it; a
// body that recovers panics must re-panic any it recovers while it is
// not the running proc.
func (s *Scheduler) Run(body func(id int)) {
	s.live = len(s.procs)
	for _, p := range s.procs {
		p.state = StateReady
		p.key = s.clock(p.id)
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			body(p.id)
		})
		s.heapPush(p)
	}
	defer s.stopUnfinished()
	for s.live > 0 {
		if len(s.heap) == 0 {
			if s.idle() {
				continue
			}
			s.deadlock()
		}
		p := s.heapPop()
		p.state = StateRunning
		s.running = p
		s.stats.Dispatches++
		s.emit(TraceEvent{Kind: "dispatch", ID: p.id, Key: p.key})
		if _, parked := p.next(); parked {
			p.state = StateParked
			s.stats.Parks++
			s.emit(TraceEvent{Kind: "park", ID: p.id})
		} else {
			p.state = StateDone
			s.live--
			s.emit(TraceEvent{Kind: "done", ID: p.id})
		}
		s.running = nil
	}
	if len(s.heap) != 0 {
		panic(fmt.Sprintf("simnet: %d heap entries leaked past completion", len(s.heap)))
	}
}

// stopUnfinished ends the coroutine of every proc that is not done: a
// suspended one unwinds from Park, one never dispatched never starts,
// and stopping the one whose panic is leaving next is a no-op.
func (s *Scheduler) stopUnfinished() {
	s.running = nil
	for _, p := range s.procs {
		if p.state != StateDone {
			p.state = StateDone
			func() {
				defer func() {
					if v := recover(); v != nil && v != (unwind{}) {
						panic(v)
					}
				}()
				p.stop()
			}()
		}
	}
}

// Park yields the running proc until some other proc (or the OnIdle
// resolver) calls Unpark on it. Must be called from the running proc.
func (s *Scheduler) Park() {
	if s.running == nil {
		panic("simnet: Park outside a running proc")
	}
	if !s.running.yield(struct{}{}) {
		panic(unwind{})
	}
}

// Unpark makes a parked proc runnable at its current clock. It may be
// called from the running proc (a delivery waking a blocked receiver)
// or from inside OnIdle (a timeout resolution); never concurrently.
func (s *Scheduler) Unpark(id int) {
	p := s.procs[id]
	if p.state != StateParked {
		panic(fmt.Sprintf("simnet: Unpark(%d) in state %v", id, p.state))
	}
	p.state = StateReady
	p.key = s.clock(id)
	s.heapPush(p)
	s.stats.Unparks++
	s.emit(TraceEvent{Kind: "unpark", ID: id, Key: p.key})
}

func (s *Scheduler) idle() bool {
	if s.onIdle == nil {
		return false
	}
	if s.onIdle() {
		s.stats.IdleResolves++
		s.emit(TraceEvent{Kind: "idle", ID: -1})
		return true
	}
	return false
}

func (s *Scheduler) deadlock() {
	var stuck []int
	for _, p := range s.procs {
		if p.state == StateParked {
			stuck = append(stuck, p.id)
		}
	}
	sort.Ints(stuck)
	panic(fmt.Sprintf("simnet: deadlock — no runnable proc, no resolvable wait; stuck procs: %v", stuck))
}

func (s *Scheduler) emit(ev TraceEvent) {
	if s.trace != nil {
		s.trace(ev)
	}
}

// --- binary heap ordered by (key, id) ---

func (s *Scheduler) less(a, b *proc) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.id < b.id
}

func (s *Scheduler) heapPush(p *proc) {
	s.heap = append(s.heap, p)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.heap[i], s.heap[parent]) {
			break
		}
		s.heapSwap(i, parent)
		i = parent
	}
	if len(s.heap) > s.stats.PeakRunnable {
		s.stats.PeakRunnable = len(s.heap)
	}
}

func (s *Scheduler) heapPop() *proc {
	p := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap[last] = nil
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && s.less(s.heap[l], s.heap[smallest]) {
			smallest = l
		}
		if r < last && s.less(s.heap[r], s.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s.heapSwap(i, smallest)
		i = smallest
	}
	return p
}

func (s *Scheduler) heapSwap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
}
