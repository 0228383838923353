package sched

import (
	"cmp"
	"slices"
	"sync"

	"gridqr/internal/telemetry"
)

// queue is one partition's wait queue, in admission (seq) order. It
// holds admitted work only — Submit enforces the server-wide QueueCap
// before a job gets here — so it has no bound of its own.
type queue struct {
	mu   sync.Mutex
	jobs []*Job // ascending seq
	// depth mirrors len(jobs) for the monitoring surface; updated under
	// the lock at every mutation so scrapes never race or re-lock.
	depth *telemetry.Gauge
}

func newQueue(depth *telemetry.Gauge) *queue { return &queue{depth: depth} }

// push queues a job at its admission place: a requeued or preempted job
// goes back ahead of everything admitted after it.
func (q *queue) push(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	i, _ := slices.BinarySearchFunc(q.jobs, j.seq, func(o *Job, seq int64) int {
		return cmp.Compare(o.seq, seq)
	})
	q.jobs = slices.Insert(q.jobs, i, j)
	q.depth.Set(float64(len(q.jobs)))
}

// pop removes and returns the earliest-admitted queued job for which
// match returns true (any job when match is nil), or ok=false when none
// is queued. The runner pops with nil; work stealing passes the jobs
// the thief can run.
func (q *queue) pop(match func(*Job) bool) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := 0
	if match != nil {
		i = slices.IndexFunc(q.jobs, match)
	}
	if i < 0 || i >= len(q.jobs) {
		return nil, false
	}
	j := q.jobs[i]
	q.jobs = slices.Delete(q.jobs, i, i+1)
	q.depth.Set(float64(len(q.jobs)))
	return j, true
}

// len returns the number of queued jobs.
func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// snapshot copies the queued jobs for the job table, in admission order.
func (q *queue) snapshot() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	return slices.Clone(q.jobs)
}
