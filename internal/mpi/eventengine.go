package mpi

import (
	"fmt"
	"time"

	"gridqr/internal/simnet"
)

// eventEngine runs cost-only worlds as a discrete-event simulation:
// rank bodies become cooperatively scheduled coroutines on a
// simnet.Scheduler, dispatched in (virtual clock, id) order, with one
// flat pending-message store instead of per-rank mutex+cond mailboxes.
// Exactly one rank executes at any moment, so no engine state needs a
// lock, delivery order is a pure function of virtual time, and the
// whole run is deterministic by construction — the property the
// cross-engine equivalence tests pin against the goroutine runtime.
//
// Blocking semantics map onto the scheduler like this:
//
//   - blocking receive  -> register a (from, comm, tag) wait, Park; a
//     matching deliver (or a death/timeout resolution) Unparks;
//   - wall-clock recv timeouts -> deterministic idle resolution: when
//     no rank can run, the lowest-(clock, rank) parked waiter with a
//     timeout armed observes its TimeoutError. Virtual time has no
//     wall clock, and resolving waiters one at a time in a fixed order
//     is the deterministic limit of "every stuck timeout eventually
//     fires";
//   - a rank killed by the fault plan -> its coroutine unwinds on the
//     kill sentinel and parked receivers waiting on it are woken to
//     re-check liveness, exactly like mailbox.wake.
//   - a cost-only allreduce without a fault plan or a spare hook -> one
//     rendezvous per call (allreduce below): every member but the last
//     parks once, and the last prices the whole binomial tree and
//     unparks them.
type eventEngine struct {
	w        *World
	sched    *simnet.Scheduler
	pending  [][]message // per-rank undelivered messages, append order
	waits    []recvWait  // per-rank registered blocking wait
	perr     []error     // pending timeout/failure resolution, read on unpark
	poisoned bool

	rvs        map[string]*rendezvous // per communicator path
	curPending int
	stats      EngineStats
}

type recvWait struct {
	active  bool
	from    int
	comm    string
	tag     int
	timeout time.Duration
}

// EngineStats reports deterministic high-water marks of the event
// engine; the scale tests bound them to prove the engine stays
// O(active events + ranks), not O(ranks × mailbox).
type EngineStats struct {
	Engine       string // "event" or "goroutine"
	Deliveries   int64  // messages enqueued
	PeakPending  int    // high-water mark of undelivered messages (an allreduce rendezvous queues none)
	Dispatches   int64  // scheduler handoffs
	Parks        int64  // blocking waits that actually parked
	IdleResolves int64  // deterministic timeout resolutions
	PeakRunnable int    // high-water mark of the run heap
}

func newEventEngine(w *World) *eventEngine {
	return &eventEngine{w: w}
}

func (e *eventEngine) kind() string { return "event" }

func (e *eventEngine) run(fn func(*Ctx)) {
	w := e.w
	e.sched = simnet.New(w.n, func(id int) float64 { return w.clocks[id] })
	e.pending = make([][]message, w.n)
	e.waits = make([]recvWait, w.n)
	e.perr = make([]error, w.n)
	e.rvs = make(map[string]*rendezvous)
	e.poisoned = false
	e.sched.OnIdle(e.resolveIdle)
	panics := make([]any, w.n)
	e.sched.Run(func(rank int) {
		defer func() {
			if p := recover(); p != nil {
				if e.sched.Running() != rank {
					// The scheduler is unwinding this parked rank
					// because Run is panicking: not a rank failure.
					panic(p)
				}
				if ks, ok := p.(killSentinel); ok {
					w.markDead(ks.rank)
					return
				}
				panics[rank] = p
				e.poison()
			}
		}()
		fn(&Ctx{world: w, rank: rank})
	})
	st := e.sched.Stats()
	e.stats.Engine = "event"
	e.stats.Dispatches += st.Dispatches
	e.stats.Parks += st.Parks
	e.stats.IdleResolves += st.IdleResolves
	if st.PeakRunnable > e.stats.PeakRunnable {
		e.stats.PeakRunnable = st.PeakRunnable
	}
	for rank, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("mpi: rank %d panicked: %v", rank, p))
		}
	}
	// Pending state is rebuilt per run; nothing to unpoison.
}

func (e *eventEngine) deliver(to int, m message) {
	e.pending[to] = append(e.pending[to], m)
	e.curPending++
	e.stats.Deliveries++
	if e.curPending > e.stats.PeakPending {
		e.stats.PeakPending = e.curPending
	}
	wt := &e.waits[to]
	if wt.active && wt.from == m.from && wt.comm == m.comm && wt.tag == m.tag {
		wt.active = false
		e.sched.Unpark(to)
	}
}

// receive mirrors mailbox.takeWait's predicate order exactly: poison,
// then the queue scan, then the deadness check, then (at idle time) the
// timeout — so a message sent before its sender died is still
// delivered, on either engine.
func (e *eventEngine) receive(rank, from int, comm string, tag int, isDead func() bool, timeout time.Duration) (message, error) {
	for {
		if e.poisoned {
			panic(poisonedRecv)
		}
		if m, ok := e.match(rank, from, comm, tag); ok {
			return m, nil
		}
		if isDead != nil && isDead() {
			return message{}, &RankFailedError{Rank: from, Op: "recv"}
		}
		e.waits[rank] = recvWait{active: true, from: from, comm: comm, tag: tag, timeout: timeout}
		e.sched.Park()
		e.waits[rank].active = false
		if err := e.perr[rank]; err != nil {
			e.perr[rank] = nil
			return message{}, err
		}
	}
}

func (e *eventEngine) match(rank, from int, comm string, tag int) (message, bool) {
	queue := e.pending[rank]
	for i, m := range queue {
		if m.from == from && m.comm == comm && m.tag == tag {
			e.pending[rank] = append(queue[:i], queue[i+1:]...)
			e.curPending--
			return m, true
		}
	}
	return message{}, false
}

// rendezvous is one communicator's allreduce meeting point, reused by
// every allreduce on it: the members arrived so far, each member's vector
// length, and the broadcast message each member is due.
type rendezvous struct {
	arrived int
	lens    []int
	bcast   []message
}

// allreduce runs Comm.allreduce's cost-only message walk as one
// rendezvous. Each member records its vector length and parks, as a wait
// that poison wakes (a member that never arrives leaves the others to the
// scheduler's deadlock report). The last to arrive walks the binomial
// tree arithmetically — the reduce level by level (mask 1, 2, 4 …), then
// the broadcast in increasing rank order — through World.post and
// World.land, so every member's sends and receives happen in its own
// program order with the same float operations as on the walk, and then
// unparks the others. Nothing is queued: PeakPending counts no allreduce
// traffic, Deliveries counts every message.
func (e *eventEngine) allreduce(c *Comm, size int) {
	if e.poisoned {
		panic(poisonedRecv)
	}
	n := len(c.members)
	rv := e.rvs[c.path]
	if rv == nil || len(rv.lens) != n { // first use, or a label reused at another size
		rv = &rendezvous{lens: make([]int, n), bcast: make([]message, n)}
		e.rvs[c.path] = rv
	}
	rv.lens[c.rank] = size
	if rv.arrived++; rv.arrived < n {
		e.waits[c.ctx.rank] = recvWait{active: true, from: -1}
		e.sched.Park()
		if e.poisoned {
			panic(poisonedRecv)
		}
		return
	}
	rv.arrived = 0
	w := e.w
	for mask := 1; mask < n; mask <<= 1 {
		for me := mask; me < n; me += 2 * mask {
			w.land(c.members[me-mask], e.post(c, me, me-mask, reduceTag, rv.lens[me]))
		}
	}
	for me := 0; me < n; me++ {
		if me != 0 {
			w.land(c.members[me], rv.bcast[me])
		}
		for mask := 1; mask < n && me&mask == 0; mask <<= 1 {
			if child := me | mask; child < n {
				rv.bcast[child] = e.post(c, me, child, bcastTag, rv.lens[me])
			}
		}
	}
	for i, r := range c.members {
		if i != c.rank {
			e.waits[r].active = false
			e.sched.Unpark(r)
		}
	}
}

// post prices and counts one rendezvous message between comm ranks of c,
// sized by the sender's vector length.
func (e *eventEngine) post(c *Comm, from, to, tag, size int) message {
	w, f, t := e.w, c.members[from], c.members[to]
	link, class := w.g.Link(w.cluster[f], w.node[f], w.cluster[t], w.node[t])
	e.stats.Deliveries++
	return w.post(f, t, link, class, c.path, tag, nil, 8*float64(size), 0)
}

// rankDied wakes every parked receiver waiting on the dead rank so its
// receive loop re-checks the deadness predicate (a matching in-flight
// message still wins: the loop rescans the queue first).
func (e *eventEngine) rankDied(rank int) {
	for r := range e.waits {
		wt := &e.waits[r]
		if wt.active && wt.from == rank {
			wt.active = false
			e.sched.Unpark(r)
		}
	}
}

// poison unblocks every parked receiver; each panics with the same
// message the mailbox path uses, is recovered by its own coroutine
// wrapper, and World.Run re-raises the lowest-ranked panic — identical
// crash semantics across engines.
func (e *eventEngine) poison() {
	e.poisoned = true
	for r := range e.waits {
		wt := &e.waits[r]
		if wt.active {
			wt.active = false
			e.sched.Unpark(r)
		}
	}
}

// resolveIdle is the deterministic stand-in for wall-clock receive
// timeouts. It runs when no rank is runnable:
// among parked waiters with a timeout armed, the lowest (clock, rank)
// one observes its TimeoutError; re-entered until the world unsticks.
// Waiters without a timeout are left parked — if nothing is resolvable
// the scheduler reports a deadlock, which on the goroutine engine would
// have been a silent hang.
func (e *eventEngine) resolveIdle() bool {
	best := -1
	for r := range e.waits {
		wt := &e.waits[r]
		if !wt.active || wt.timeout <= 0 {
			continue
		}
		if best == -1 || e.w.clocks[r] < e.w.clocks[best] {
			best = r
		}
	}
	if best == -1 {
		return false
	}
	wt := &e.waits[best]
	e.perr[best] = &TimeoutError{Rank: wt.from, Tag: wt.tag}
	wt.active = false
	e.sched.Unpark(best)
	return true
}

// engineStats returns the accumulated run statistics (zero-valued for
// the goroutine engine).
func (e *eventEngine) engineStats() EngineStats { return e.stats }
