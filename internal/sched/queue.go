package sched

import (
	"container/heap"
	"sync"
	"time"

	"gridqr/internal/telemetry"
)

// queue is one partition's wait queue: a priority heap (higher Priority
// first, FIFO within a priority). It holds admitted work only — Submit
// enforces the server-wide QueueCap before a job gets here — so it has
// no bound of its own. Deadlines are enforced lazily at pop time: an
// expired job stays queued until a pop reaches it.
type queue struct {
	mu sync.Mutex
	h  jobHeap
	// onDrop observes every job the queue completes itself (expired);
	// the server counts them there. Called with the queue lock
	// held, so it must not call back into the queue.
	onDrop func(*Job, error)
	// depth mirrors len(h) for the monitoring surface; updated under the
	// lock at every mutation so scrapes never race or re-lock.
	depth *telemetry.Gauge
}

func newQueue(onDrop func(*Job, error), depth *telemetry.Gauge) *queue {
	return &queue{onDrop: onDrop, depth: depth}
}

// syncDepth publishes the current length; callers hold q.mu.
func (q *queue) syncDepth() { q.depth.Set(float64(len(q.h))) }

// push queues a job.
func (q *queue) push(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	heap.Push(&q.h, j)
	q.syncDepth()
}

// pop removes and returns the highest-priority runnable job, or
// ok=false when none is queued. Expired jobs encountered on the way are
// completed (via onDrop) and skipped.
func (q *queue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.h) > 0 {
		j := heap.Pop(&q.h).(*Job)
		q.syncDepth()
		if err := runnable(j); err != nil {
			q.onDrop(j, err)
			continue
		}
		return j, true
	}
	return nil, false
}

// popMatch removes and returns the highest-priority queued job for which
// match returns true; work stealing uses it to take a job the thief can
// run. Expired matching jobs are dropped on the way, exactly like pop.
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

// runnable returns nil for a dispatchable job, or the typed error an
// expired job must complete with.
func runnable(j *Job) error {
	// A stream round's spec deadline bounds snapshot requests (enforced
	// by the stream's shed path), not the round itself: expiring a
	// queued round would discard committed folds for no reason.
	if j.stream == nil && j.spec.Deadline > 0 && time.Since(j.submit) > j.spec.Deadline {
		return ErrDeadlineExceeded
	}
	return nil
}

// len returns the number of queued jobs (including not-yet-reaped
// expired ones).
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
