package sched

import (
	"container/heap"
	"sync"
	"time"

	"gridqr/internal/telemetry"
)

// queue is the bounded admission queue: a priority heap (higher Priority
// first, FIFO within a priority) with backpressure at cap. Cancellation
// and deadlines are enforced lazily at pop time — a canceled or expired
// job occupies its slot until the dispatcher reaches it, so the bound
// len ≤ cap is a hard invariant, never exceeded.
type queue struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	cap      int
	h        jobHeap
	closed   bool
	// onDrop observes every job the queue completes itself (canceled,
	// expired); the server counts them there. Called with the queue lock
	// held, so it must not call back into the queue.
	onDrop func(*Job, error)
	// depth mirrors len(h) for the monitoring surface; updated under the
	// lock at every mutation so scrapes never race or re-lock.
	depth *telemetry.Gauge
}

func newQueue(capacity int, onDrop func(*Job, error), depth *telemetry.Gauge) *queue {
	q := &queue{cap: capacity, onDrop: onDrop, depth: depth}
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// syncDepth publishes the current length; callers hold q.mu.
func (q *queue) syncDepth() { q.depth.Set(float64(len(q.h))) }

// push admits a job, returning ErrQueueFull at capacity and
// ErrServerClosed after close. retry pushes (re-admission after a
// recoverable execution failure) share the same bound: an overloaded
// queue sheds the retry rather than growing without limit.
func (q *queue) push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrServerClosed
	}
	if len(q.h) >= q.cap {
		return ErrQueueFull
	}
	heap.Push(&q.h, j)
	q.syncDepth()
	q.notEmpty.Signal()
	return nil
}

// pushRetry re-admits an in-flight job after a retryable failure. The
// queue may be closed to new work while retries drain, so closed is not
// an error here; the capacity bound still holds.
func (q *queue) pushRetry(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.h) >= q.cap {
		return ErrQueueFull
	}
	heap.Push(&q.h, j)
	q.syncDepth()
	q.notEmpty.Signal()
	return nil
}

// pop returns the highest-priority runnable job. Canceled and expired
// jobs encountered on the way are completed (via onDrop) and skipped.
// With block set it waits for work, returning ok=false only when the
// queue is closed and empty; unblocked it returns ok=false immediately
// when no runnable job is queued.
func (q *queue) pop(block bool) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for len(q.h) > 0 {
			j := heap.Pop(&q.h).(*Job)
			q.syncDepth()
			if err := runnable(j); err != nil {
				q.onDrop(j, err)
				continue
			}
			return j, true
		}
		if !block || q.closed {
			return nil, false
		}
		q.notEmpty.Wait()
	}
}

// popMatch removes and returns the highest-priority queued job for which
// match returns true (never blocking); work stealing uses it to take
// a job the thief can run. Canceled/expired matching jobs are dropped on
// the way, exactly like pop.
func (q *queue) popMatch(match func(*Job) bool) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		best := -1
		for i, j := range q.h {
			if !match(j) {
				continue
			}
			if best < 0 || q.h.before(j, q.h[best]) {
				best = i
			}
		}
		if best < 0 {
			return nil, false
		}
		j := heap.Remove(&q.h, best).(*Job)
		q.syncDepth()
		if err := runnable(j); err != nil {
			q.onDrop(j, err)
			continue
		}
		return j, true
	}
}

// runnable returns nil for a dispatchable job, or the typed error a
// canceled/expired job must complete with.
func runnable(j *Job) error {
	if j.canceled.Load() {
		return ErrCanceled
	}
	// A stream round's spec deadline bounds snapshot requests (enforced
	// by the stream's shed path), not the round itself: expiring a
	// queued round would discard committed folds for no reason.
	if j.stream == nil && j.spec.Deadline > 0 && time.Since(j.submit) > j.spec.Deadline {
		return ErrDeadlineExceeded
	}
	return nil
}

// close stops admission; queued jobs still drain through pop.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
}

// len returns the number of queued jobs (including not-yet-reaped
// canceled/expired ones, which still hold their capacity slot).
func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h)
}

// snapshot copies the queued jobs for the job table (heap order, not
// sorted; callers order as they need).
func (q *queue) snapshot() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]*Job(nil), q.h...)
}

// jobHeap orders by priority (higher first), then admission sequence
// (FIFO).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) before(a, b *Job) bool {
	if a.spec.Priority != b.spec.Priority {
		return a.spec.Priority > b.spec.Priority
	}
	return a.seq < b.seq
}
func (h jobHeap) Less(i, j int) bool { return h.before(h[i], h[j]) }
func (h jobHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)        { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
