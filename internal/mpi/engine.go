package mpi

import (
	"fmt"
	"sync"
	"time"
)

// engine is the execution runtime behind a World: how rank bodies are
// driven and how messages move between them. Two implementations share
// every algorithm-facing code path (Ctx.sendE/recvE, the collectives,
// tracing, fault injection):
//
//   - goroutineEngine: one preemptively scheduled goroutine per rank,
//     mailboxes with mutex+cond transport. Required for real-time mode
//     and for data-bearing virtual mode (local kernels should use the
//     machine's cores), and for rank bodies that block on external Go
//     primitives (the job scheduler's executors).
//   - eventEngine: a discrete-event simulator over internal/simnet —
//     ranks are cooperatively scheduled coroutines on a virtual-time
//     event queue. Selected automatically for cost-only worlds, where
//     it lifts the practical rank ceiling from hundreds to tens of
//     thousands.
//
// The interface is deliberately the mailbox contract: everything above
// it (pricing, counting, fault rules, span writing, clock advancement)
// is engine-independent, which is what the cross-engine determinism
// tests pin down.
type engine interface {
	// run executes fn on every rank and blocks until all complete,
	// reproducing World.Run's panic/kill semantics.
	run(fn func(*Ctx))
	// deliver enqueues a priced message for rank `to`.
	deliver(to int, m message)
	// receive blocks rank `rank` until a message matching (from, comm,
	// tag) is available, honoring the deadness predicate and timeout
	// with the same precedence as mailbox.takeWait.
	receive(rank, from int, comm string, tag int, isDead func() bool, timeout time.Duration) (message, error)
	// rankDied wakes blocked receivers so they re-check liveness.
	rankDied(rank int)
	kind() string
}

// goroutineEngine is the original runtime: per-rank goroutines and
// per-rank mailboxes.
type goroutineEngine struct {
	w     *World
	boxes []*mailbox
}

func newGoroutineEngine(w *World) *goroutineEngine {
	e := &goroutineEngine{w: w, boxes: make([]*mailbox, w.n)}
	for i := range e.boxes {
		e.boxes[i] = newMailbox()
	}
	return e
}

func (e *goroutineEngine) kind() string { return "goroutine" }

func (e *goroutineEngine) run(fn func(*Ctx)) {
	w := e.w
	var wg sync.WaitGroup
	panics := make([]any, w.n)
	for r := 0; r < w.n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if ks, ok := p.(killSentinel); ok {
						w.markDead(ks.rank)
						return
					}
					panics[rank] = p
					// Unblock every rank potentially waiting on us.
					for _, b := range e.boxes {
						b.poison()
					}
				}
			}()
			fn(&Ctx{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	for rank, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("mpi: rank %d panicked: %v", rank, p))
		}
	}
	for _, b := range e.boxes {
		b.unpoison()
	}
}

func (e *goroutineEngine) deliver(to int, m message) { e.boxes[to].put(m) }

func (e *goroutineEngine) receive(rank, from int, comm string, tag int, isDead func() bool, timeout time.Duration) (message, error) {
	return e.boxes[rank].takeWait(from, comm, tag, isDead, timeout)
}

func (e *goroutineEngine) rankDied(int) {
	for _, b := range e.boxes {
		b.wake()
	}
}
