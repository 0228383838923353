package sched

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// Kind selects which factorization a job runs. Every kind wraps one of
// the existing core entry points, so the serving layer adds no numerics
// of its own.
type Kind int

const (
	// KindTSQR factors the job's matrix with QCG-TSQR (R factor only).
	KindTSQR Kind = iota
	// KindCAQR runs the panel-wise CAQR factorization.
	KindCAQR
	// KindCholQR runs the single-allreduce CholeskyQR scheme; the job
	// fails with a *CholQRError when the Gram matrix is indefinite.
	KindCholQR
	// KindLstSq solves min‖A·x−b‖₂ through TSQR (data mode only).
	KindLstSq
	// KindStream is an always-on incremental TSQR: the job is a
	// long-lived stream handle (SubmitStream) whose rounds fold arriving
	// row blocks into per-rank running R's and serve snapshot barriers.
	KindStream
)

func (k Kind) String() string {
	switch k {
	case KindTSQR:
		return "tsqr"
	case KindCAQR:
		return "caqr"
	case KindCholQR:
		return "cholqr"
	case KindLstSq:
		return "lstsq"
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
	// NRHS is the number of right-hand sides for KindLstSq (default 1).
	NRHS int
	// Seed generates the job's matrix deterministically by global row
	// (matrix.RandomRows), so the same spec denotes the same matrix
	// regardless of which partition — or how many ranks — serves it.
	Seed int64
	// Priority orders admission: higher runs sooner; ties are FIFO.
	Priority int
	// Deadline bounds the queue wait: a job still undispatched after
	// this duration completes with ErrDeadlineExceeded. Zero = none.
	// For KindStream it instead bounds each snapshot request: a request
	// not served within the deadline is shed typed, and the in-flight
	// round is cut at its next block boundary (folds already committed
	// are kept — shedding loses no blocks).
	Deadline time.Duration
	// BlockRows is the KindStream ingest granularity: global rows per
	// streamed block. Block b covers global rows
	// [b·BlockRows, (b+1)·BlockRows), strided over the partition's
	// ranks, so the partition of rows — and hence the folded R — does
	// not depend on how ingest calls are grouped.
	BlockRows int
	// Preemptible allows the scheduler to interrupt this job at a TSQR
	// tree-stage boundary — the partition's current R fragments become
	// the checkpoint — and resume it later, possibly on a different
	// partition, with a bitwise-identical result. Only TSQR jobs may be
	// preemptible.
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
	// ErrCanceled completes a job whose Cancel ran before dispatch.
	ErrCanceled = errors.New("sched: job canceled")
	// ErrDeadlineExceeded completes a job whose queue wait outlived its
	// deadline.
	ErrDeadlineExceeded = errors.New("sched: deadline exceeded in queue")
	// ErrNoPartition fails a job when no healthy partition remains (all
	// lost ranks to the fault plan).
	ErrNoPartition = errors.New("sched: no healthy partition")
)

// SpecError reports an infeasible or malformed JobSpec at submission.
type SpecError struct{ Reason string }

func (e *SpecError) Error() string { return "sched: bad job spec: " + e.Reason }

// CholQRError reports a CholeskyQR job whose Gram matrix was numerically
// indefinite — the input was too ill-conditioned for the scheme.
type CholQRError struct{}

func (e *CholQRError) Error() string {
	return "sched: CholeskyQR failed (Gram matrix indefinite)"
}

// JobResult is the outcome of one job.
type JobResult struct {
	// R is the N×N upper triangular factor (nil in cost-only mode and
	// for failed jobs). For KindLstSq it is nil; see X.
	R *matrix.Dense
	// X is the N×NRHS least-squares solution (KindLstSq only), with
	// Resid the per-column residual norms.
	X     *matrix.Dense
	Resid []float64
	// Err is non-nil when the job failed; it is typed
	// (*mpi.RankFailedError, *CholQRError, ErrCanceled, ...).
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
	spec     JobSpec
	id       int64
	seq      int64 // admission order, the FIFO tiebreak
	submit   time.Time
	canceled atomic.Bool
	done     chan struct{}
	res      JobResult

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

// Spec returns the job's submitted specification.
func (j *Job) Spec() JobSpec { return j.spec }

// ID returns the job's server-unique id.
func (j *Job) ID() int64 { return j.id }

// Done returns a channel closed when the result is ready.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result blocks until the job completes and returns its outcome.
func (j *Job) Result() *JobResult {
	<-j.done
	return &j.res
}

// Cancel requests cancellation. A job still in the admission queue
// completes with ErrCanceled; a job already dispatched runs to completion
// and Cancel has no effect on its result.
func (j *Job) Cancel() { j.canceled.Store(true) }

// complete resolves the future exactly once; the queue/dispatcher
// protocol guarantees a single completer per job.
func (j *Job) complete(res JobResult) {
	j.res = res
	close(j.done)
}

// validate checks a spec against the serving partitions: the kind must
// be known, the matrix must be tall enough for every partition's
// one-domain-per-process TSQR (rows per rank ≥ N), CAQR row blocks must
// divide by its panel width, and least-squares needs data mode.
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
	if spec.Kind == KindLstSq {
		if !s.hasData {
			return &SpecError{Reason: "least-squares requires data mode"}
		}
		if spec.NRHS < 0 {
			return &SpecError{Reason: "negative NRHS"}
		}
	}
	if spec.Preemptible && spec.Kind != KindTSQR {
		return &SpecError{Reason: "only TSQR jobs are preemptible"}
	}
	for _, p := range s.parts {
		if p.retired.Load() {
			continue
		}
		procs := len(p.members)
		if spec.M/procs < spec.N {
			return &SpecError{Reason: fmt.Sprintf(
				"matrix %dx%d not tall enough for partition %d (%d procs need M >= %d)",
				spec.M, spec.N, p.index, procs, spec.N*procs)}
		}
		if spec.Kind == KindCAQR {
			if spec.M%procs != 0 || (spec.M/procs)%caqrNB != 0 {
				return &SpecError{Reason: fmt.Sprintf(
					"CAQR needs row blocks divisible by NB=%d on partition %d", caqrNB, p.index)}
			}
		}
	}
	return nil
}
