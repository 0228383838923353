package mpi

import (
	"sync"
	"time"
)

// message is one tagged point-to-point transfer. comm scopes tags to a
// communicator so traffic on different communicators can never
// cross-match.
type message struct {
	from    int
	seq     int64 // per-sender sequence number: the flow identity of the transfer
	comm    string
	tag     int
	data    []float64
	bytes   float64
	arrival float64 // virtual arrival time; 0 in real mode
	class   int     // grid.LinkClass of the traversed link
}

// mailbox is a per-rank queue of undelivered messages with match-by-
// (sender, communicator, tag) semantics. Messages from the same sender
// with the same tag are delivered in send order.
type mailbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []message
	poisoned bool
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(m message) {
	b.mu.Lock()
	b.queue = append(b.queue, m)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// takeWait blocks until a message matching (from, comm, tag) is
// available and removes it from the queue. It gives up with a
// RankFailedError when isDead reports the sender dead and no matching
// message is queued, or with a TimeoutError after the (wall-clock)
// timeout, and panics if the mailbox is poisoned (a sibling rank
// crashed), so World.Run can unwind cleanly. The queue is always scanned before consulting isDead, so a
// message sent before the sender died is still delivered — in-flight
// traffic survives its sender.
func (b *mailbox) takeWait(from int, comm string, tag int, isDead func() bool, timeout time.Duration) (message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	timedOut := false
	if timeout > 0 {
		t := time.AfterFunc(timeout, func() {
			b.mu.Lock()
			timedOut = true
			b.mu.Unlock()
			b.cond.Broadcast()
		})
		defer t.Stop()
	}
	for {
		if b.poisoned {
			panic("mpi: peer rank panicked while this rank was receiving")
		}
		for i, m := range b.queue {
			if m.from == from && m.comm == comm && m.tag == tag {
				b.queue = append(b.queue[:i], b.queue[i+1:]...)
				return m, nil
			}
		}
		if isDead != nil && isDead() {
			return message{}, &RankFailedError{Rank: from, Op: "recv"}
		}
		if timedOut {
			return message{}, &TimeoutError{Rank: from, Tag: tag}
		}
		b.cond.Wait()
	}
}

func (b *mailbox) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// wake rechecks every waiter's predicates (used when a rank dies).
func (b *mailbox) wake() { b.cond.Broadcast() }

func (b *mailbox) unpoison() {
	b.mu.Lock()
	b.poisoned = false
	b.queue = nil
	b.mu.Unlock()
}
