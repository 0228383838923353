package sched

import (
	"slices"
	"sync/atomic"

	"gridqr/internal/perfmodel"
)

// partition is one space-share of the grid: a site-aligned rank set with
// its own sub-communicator, job queue and runner goroutine, executing at
// most one job at a time.
type partition struct {
	index   int   // index within its epoch's plan
	epoch   int   // epoch that formed this partition
	members []int // world ranks, ascending
	pred    perfmodel.Predictor
	q       *queue
	cur     atomic.Pointer[jobExec] // in-flight execution, for preemption
	healthy atomic.Bool
	retired atomic.Bool
}

// requeueLocked routes a job that is waiting for a partition: onto the
// queue placeLocked picks, else onto the pending list while a
// Reconfigure installs the next epoch, else — no live partition and none
// coming — it fails the job with ErrNoPartition. Every job goes through
// here: admissions (after Submit's QueueCap check), retries, preempted
// resumes, stream rounds and jobs displaced from a retired partition;
// all but admissions bypass the admission bound, since they are work
// already admitted. Caller holds s.mu.
func (s *Server) requeueLocked(j *Job, avoid int) {
	switch tgt := s.placeLocked(j, avoid); {
	case tgt != nil:
		tgt.q.push(j)
	case s.reconfiguring:
		s.pending = append(s.pending, j)
	default:
		s.fail(j, ErrNoPartition)
		return
	}
	s.addQueuedLocked(1)
	s.workGen++
	s.workCond.Broadcast()
}

// placeLocked picks the queue a job should wait in: the least-loaded
// live partition the job fits, strongly preferring a different partition
// than `avoid` (the one that just preempted it) and partitions whose
// size matches the job's checkpoint (so the resume replays instead of
// restarting). Returns nil when no live partition fits. Caller holds
// s.mu.
func (s *Server) placeLocked(j *Job, avoid int) *partition {
	const tier = 1 << 20 // dominates any realistic queue depth
	var best *partition
	bestScore := 0
	for _, p := range s.parts {
		if p.retired.Load() || !p.healthy.Load() {
			continue
		}
		if !fitsPartition(j, p) {
			continue
		}
		score := p.q.len()
		if p.index == avoid {
			score += tier
		}
		if j.ckpt != nil && j.ckpt.Procs != len(p.members) {
			score += tier
		}
		if best == nil || score < bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// fitsPartition is admission's rule (fits) for one partition, which
// stealing and re-routing re-check; a stream fits only the partition
// size it pinned.
func fitsPartition(j *Job, p *partition) bool {
	procs := len(p.members)
	if j.spec.Kind == KindStream {
		// A stream pins its partition size at the first dispatch:
		// resuming on a different size would change the strided row
		// sharding and break the bitwise contract.
		pinned := j.stream.procs.Load()
		return pinned == 0 || int(pinned) == procs
	}
	return fits(j.spec, procs)
}

// stealLocked takes the best queued job this partition can run from the
// most loaded other live queue — work-stealing drains imbalanced
// partition queues without a central dispatcher. Caller holds s.mu.
func (s *Server) stealLocked(p *partition) (*Job, bool) {
	var victim *partition
	for _, o := range s.parts {
		if o == p || o.retired.Load() || !o.healthy.Load() || o.q.len() == 0 {
			continue
		}
		if victim == nil || o.q.len() > victim.q.len() {
			victim = o
		}
	}
	if victim == nil {
		return nil, false
	}
	j, ok := victim.q.popMatch(func(o *Job) bool {
		if !fitsPartition(o, p) || o.avoid == p.index {
			return false
		}
		// Leave a checkpointed job for a partition that can resume it.
		return o.ckpt == nil || o.ckpt.Procs == len(p.members)
	})
	if ok {
		s.addQueuedLocked(-1)
	}
	return j, ok
}

// checkHealthLocked retires the partition if the fault plan killed one
// of its members, re-routing its queued jobs to surviving partitions.
// Caller holds s.mu.
func (s *Server) checkHealthLocked(p *partition) {
	if !slices.ContainsFunc(p.members, s.world.RankDead) || !p.retired.CompareAndSwap(false, true) {
		return
	}
	p.healthy.Store(false)
	for _, j := range s.takeLocked(p) {
		s.requeueLocked(j, p.index)
	}
}

// takeLocked empties p's queue, taking its jobs out of the queued count.
// Caller holds s.mu.
func (s *Server) takeLocked(p *partition) []*Job {
	var jobs []*Job
	for {
		j, ok := p.q.pop()
		if !ok {
			return jobs
		}
		s.addQueuedLocked(-1)
		jobs = append(jobs, j)
	}
}

// takeAllLocked empties every queue and then the pending list. Caller
// holds s.mu.
func (s *Server) takeAllLocked() []*Job {
	var jobs []*Job
	for _, p := range s.parts {
		jobs = append(jobs, s.takeLocked(p)...)
	}
	jobs = append(jobs, s.pending...)
	s.addQueuedLocked(-len(s.pending))
	s.pending = nil
	return jobs
}
