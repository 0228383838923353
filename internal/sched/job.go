package sched

import (
	"errors"
	"fmt"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// Kind selects what a job serves. Both kinds run core's staged TSQR
// entry points, so the serving layer adds no numerics of its own.
type Kind int

const (
	// KindTSQR factors the job's matrix with QCG-TSQR (R factor only).
	KindTSQR Kind = iota
	// KindStream is an always-on incremental TSQR: the job is a
	// long-lived stream handle (SubmitStream) whose rounds fold arriving
	// row blocks into per-rank running R's and serve snapshot barriers.
	KindStream
)

func (k Kind) String() string {
	switch k {
	case KindTSQR:
		return "tsqr"
	case KindStream:
		return "stream"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// JobSpec describes one factorization request.
type JobSpec struct {
	Kind Kind
	// M, N are the global matrix dimensions (M ≫ N).
	M, N int
	// Seed generates the job's matrix deterministically by global row
	// (matrix.RandomRows), so the same spec denotes the same matrix
	// regardless of which partition — or how many ranks — serves it.
	Seed int64
	// BlockRows is the KindStream ingest granularity: global rows per
	// streamed block. Block b covers global rows
	// [b·BlockRows, (b+1)·BlockRows), strided over the partition's
	// ranks, so the partition of rows — and hence the folded R — does
	// not depend on how ingest calls are grouped.
	BlockRows int
	// Preemptible allows the scheduler to interrupt this job at a TSQR
	// tree-stage boundary — the partition's current R fragments become
	// the checkpoint — and resume it later, possibly on a different
	// partition, with a bitwise-identical result. Stream jobs may not
	// be preemptible (their rounds already stop at block boundaries).
	Preemptible bool
}

// Admission and execution errors. Submit returns them directly;
// execution failures arrive through JobResult.Err.
var (
	// ErrQueueFull is the backpressure signal: the bounded admission
	// queue is at capacity and the caller should retry later or shed.
	ErrQueueFull = errors.New("sched: admission queue full")
	// ErrServerClosed rejects submissions after Close began.
	ErrServerClosed = errors.New("sched: server closed")
	// ErrNoPartition fails a job when no healthy partition remains (all
	// lost ranks to the fault plan).
	ErrNoPartition = errors.New("sched: no healthy partition")
)

// SpecError reports an infeasible or malformed JobSpec at submission.
type SpecError struct{ Reason string }

func (e *SpecError) Error() string { return "sched: bad job spec: " + e.Reason }

// JobResult is the outcome of one job.
type JobResult struct {
	// R is the N×N upper triangular factor (nil in cost-only mode and
	// for failed jobs).
	R *matrix.Dense
	// Err is non-nil when the job failed; it is typed
	// (*mpi.RankFailedError, ErrNoPartition, ...).
	Err error

	// Partition is the index of the grid partition that served the job
	// (-1 if it never dispatched).
	Partition int
	// Retries counts re-dispatches after retryable failures.
	Retries int
	// Preemptions counts tree-stage checkpoints this job was resumed
	// from: each one is an interruption at a stage boundary followed by
	// a resume (possibly on a different partition).
	Preemptions int

	// QueueWait is the wall-clock time from submission to dispatch,
	// Service from dispatch to completion; in a virtual-time world
	// Service is instead the maximum virtual-clock advance across the
	// partition's ranks.
	QueueWait time.Duration
	Service   time.Duration

	// Counters attributes traffic to this job: messages, bytes and
	// flops summed over the serving partition's ranks between job start
	// and job end.
	Counters mpi.CounterSnapshot
}

// Job is the future returned by Submit.
type Job struct {
	spec   JobSpec
	id     int64
	seq    int64 // admission order, the queue order
	submit time.Time
	done   chan struct{}
	res    JobResult

	// Runner-owned state; accesses are ordered by the queue mutex (a
	// retried or preempted job passes through a queue between owners).
	retries    int
	dispatched time.Time
	// preempts counts completed stage checkpoints; ckpt holds the last
	// assembled checkpoint (nil once the job finishes or restarts), and
	// partial accumulates traffic from preempted attempts so the final
	// JobResult.Counters covers the whole job.
	preempts int
	ckpt     *core.StageCheckpoint
	partial  mpi.CounterSnapshot
	// avoid names the partition that just preempted this job (-1 none):
	// placement penalizes it and stealing skips it, so the resume really
	// lands elsewhere instead of being stolen straight back.
	avoid int
	// stream is non-nil for KindStream round jobs: the long-lived stream
	// handle the round folds into. The runner commits (or rolls back)
	// the handle's state when the round finishes.
	stream *StreamJob
}

// ID returns the job's server-unique id.
func (j *Job) ID() int64 { return j.id }

// Done returns a channel closed when the result is ready.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result blocks until the job completes and returns its outcome.
func (j *Job) Result() *JobResult {
	<-j.done
	return &j.res
}

// complete resolves the future exactly once; the queue/dispatcher
// protocol guarantees a single completer per job.
func (j *Job) complete(res JobResult) {
	j.res = res
	close(j.done)
}

// validate checks a spec against the serving partitions: the kind must
// be known and the matrix tall enough for every live partition (fits).
func (s *Server) validate(spec JobSpec) error {
	if spec.Kind < KindTSQR || spec.Kind > KindStream {
		return &SpecError{Reason: fmt.Sprintf("unknown kind %d", int(spec.Kind))}
	}
	if spec.Kind == KindStream {
		if spec.N < 1 {
			return &SpecError{Reason: fmt.Sprintf("stream needs N >= 1, got %d", spec.N)}
		}
		if spec.BlockRows < 1 {
			return &SpecError{Reason: fmt.Sprintf("stream needs BlockRows >= 1, got %d", spec.BlockRows)}
		}
		if spec.Preemptible {
			return &SpecError{Reason: "stream jobs are not preemptible (rounds always preempt at block boundaries)"}
		}
		return nil
	}
	if spec.BlockRows != 0 {
		return &SpecError{Reason: "BlockRows is only meaningful for stream jobs"}
	}
	if spec.M < 1 || spec.N < 1 || spec.M < spec.N {
		return &SpecError{Reason: fmt.Sprintf("need M >= N >= 1, got %dx%d", spec.M, spec.N)}
	}
	for _, p := range s.parts {
		if procs := len(p.members); !p.retired.Load() && !fits(spec, procs) {
			return &SpecError{Reason: fmt.Sprintf(
				"matrix %dx%d not tall enough for partition %d (%d procs need M >= %d)",
				spec.M, spec.N, p.index, procs, spec.N*procs)}
		}
	}
	return nil
}

// fits is the one feasibility rule for a TSQR job on procs ranks: the
// one-domain-per-process tree needs rows per rank ≥ N.
func fits(spec JobSpec, procs int) bool { return spec.M/procs >= spec.N }
