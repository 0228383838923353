package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/stream"
	"gridqr/internal/telemetry"
)

// ErrStreamClosed rejects ingest and snapshot calls after StreamJob.Close.
var ErrStreamClosed = errors.New("sched: stream closed")

// StreamJob is a long-lived incremental TSQR: clients ingest row blocks
// at any rate and request the current global R at any time. The server
// folds arriving blocks into per-rank running R's in background rounds
// (one round in flight per stream), and a snapshot barrier runs the
// reduction tree over the running R's without disturbing them.
//
// Exactness contract: the R returned by Snapshot after ingesting blocks
// 0..k-1 is bitwise identical to one-shot TSQR of the concatenated
// blocks on the same partition size — whatever the ingest grouping,
// round boundaries, preemptions, or fault-induced retries in between.
// Rounds mutate dispatched clones of the per-rank states and commit
// them only when the whole round succeeds; a failed round rolls back to
// the committed states and refolds from the seed, so no block is ever
// lost (the checkpoint *is* the running R).
type StreamJob struct {
	s    *Server
	spec JobSpec
	id   int64

	// procs pins the partition size at the first dispatch: folding the
	// same stream on a different size would change the strided row
	// sharding and break the bitwise contract.
	procs atomic.Int32

	mu   sync.Mutex
	cond *sync.Cond // signaled on commit, failure and close

	// states are the authoritative committed per-member folder states;
	// rounds run on clones. Nil until the first round commits.
	states    []*stream.State
	ingested  int // blocks accepted by Ingest
	cursor    int // blocks folded and committed
	rounds    int // rounds committed
	snapshots int // snapshot barriers served
	retries   int // round re-dispatches after retryable failures, over the stream's life
	shed      int // snapshot requests shed at their deadline
	snapReqs  []*snapshotReq
	active    bool              // a round job is queued or in flight
	curGate   *core.PreemptGate // in-flight round's gate, for deadline shed
	failed    error             // terminal error; nil while healthy
	closed    bool
}

// snapshotReq is one waiting Snapshot call. resolved flips exactly once
// under the stream's mutex; done closes after.
type snapshotReq struct {
	done     chan struct{}
	resolved bool
	r        *matrix.Dense
	blocks   int
	counters mpi.CounterSnapshot
	err      error
	timer    *time.Timer
}

// StreamSnapshot is one served snapshot barrier.
type StreamSnapshot struct {
	// R is the global R over every committed block (nil in cost-only
	// mode). The caller owns it.
	R *matrix.Dense
	// Blocks is how many ingested blocks the snapshot covers.
	Blocks int
	// Counters is the serving partition's traffic for the round that ran
	// the barrier. Folds move no bytes, so on a snapshot-only round this
	// is exactly the barrier's traffic: p-1 messages
	// (perfmodel.StreamSnapshotExact).
	Counters mpi.CounterSnapshot
}

// StreamStats is a point-in-time account of a stream.
type StreamStats struct {
	Ingested  int // blocks accepted
	Folded    int // blocks folded and committed
	Lost      int // Ingested - Folded; nonzero only after a terminal failure
	Rounds    int // rounds committed
	Snapshots int // snapshot barriers served
	Retries   int // round re-dispatches after retryable failures, cumulative like the rest
	Shed      int // snapshot requests shed at their deadline
}

// SubmitStream validates the spec and opens a stream. spec.Kind must be
// KindStream (zero-value specs get it set); spec.Deadline, if nonzero,
// bounds each snapshot request.
func (s *Server) SubmitStream(spec JobSpec) (*StreamJob, error) {
	spec.Kind = KindStream
	if s.closed.Load() {
		s.reject(spec, ErrServerClosed)
		return nil, ErrServerClosed
	}
	s.mu.Lock()
	err := s.validate(spec)
	s.mu.Unlock()
	if err != nil {
		s.reject(spec, err)
		return nil, err
	}
	sj := &StreamJob{s: s, spec: spec, id: s.nextID.Add(1)}
	sj.cond = sync.NewCond(&sj.mu)
	return sj, nil
}

// ID returns the stream's server-unique id (round jobs get their own).
func (sj *StreamJob) ID() int64 { return sj.id }

// Spec returns the stream's specification.
func (sj *StreamJob) Spec() JobSpec { return sj.spec }

// Ingest appends blocks more blocks to the stream — block b covers
// global rows [b·BlockRows, (b+1)·BlockRows) of the seeded stream — and
// schedules folding. It never blocks on the folding itself.
func (sj *StreamJob) Ingest(blocks int) error {
	if blocks < 0 {
		return &SpecError{Reason: "negative ingest"}
	}
	sj.mu.Lock()
	if err := sj.usableLocked(); err != nil {
		sj.mu.Unlock()
		return err
	}
	sj.ingested += blocks
	sj.mu.Unlock()
	sj.s.ensureStreamRound(sj)
	return nil
}

// Snapshot blocks until a snapshot barrier covering every block
// ingested before the call has run, and returns its global R. With a
// spec deadline, a request not served in time returns
// ErrDeadlineExceeded and the in-flight round is cut at its next block
// boundary — committed folds are kept, so shedding loses nothing.
func (sj *StreamJob) Snapshot() (*StreamSnapshot, error) {
	sj.mu.Lock()
	if err := sj.usableLocked(); err != nil {
		sj.mu.Unlock()
		return nil, err
	}
	req := &snapshotReq{done: make(chan struct{})}
	sj.snapReqs = append(sj.snapReqs, req)
	if sj.spec.Deadline > 0 {
		req.timer = time.AfterFunc(sj.spec.Deadline, func() { sj.shedReq(req) })
	}
	sj.mu.Unlock()
	sj.s.ensureStreamRound(sj)
	<-req.done
	if req.err != nil {
		return nil, req.err
	}
	return &StreamSnapshot{R: req.r, Blocks: req.blocks, Counters: req.counters}, nil
}

// Drain blocks until every ingested block is folded and committed.
func (sj *StreamJob) Drain() error {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	for sj.failed == nil && sj.cursor < sj.ingested {
		sj.cond.Wait()
	}
	return sj.failed
}

// Close stops the stream — further Ingest/Snapshot calls fail typed —
// and waits for pending folds and snapshot requests to drain.
func (sj *StreamJob) Close() error {
	sj.mu.Lock()
	sj.closed = true
	for sj.failed == nil && (sj.cursor < sj.ingested || len(sj.snapReqs) > 0 || sj.active) {
		sj.cond.Wait()
	}
	err := sj.failed
	sj.mu.Unlock()
	return err
}

// Stats returns the stream's current counters.
func (sj *StreamJob) Stats() StreamStats {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return StreamStats{
		Ingested:  sj.ingested,
		Folded:    sj.cursor,
		Lost:      sj.ingested - sj.cursor,
		Rounds:    sj.rounds,
		Snapshots: sj.snapshots,
		Retries:   sj.retries,
		Shed:      sj.shed,
	}
}

// Err returns the stream's terminal error, nil while healthy.
func (sj *StreamJob) Err() error {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.failed
}

// usableLocked gates new work onto the stream. Caller holds sj.mu.
func (sj *StreamJob) usableLocked() error {
	switch {
	case sj.failed != nil:
		return sj.failed
	case sj.closed:
		return ErrStreamClosed
	case sj.s.closed.Load():
		return ErrServerClosed
	}
	return nil
}

// shedReq expires one snapshot request at its deadline: the waiter
// completes typed, and the in-flight round (if any) is asked to stop at
// its next block boundary so the partition yields cleanly. Folds
// already committed — and the round's in-progress folds, which commit
// at the cut — are all kept.
func (sj *StreamJob) shedReq(req *snapshotReq) {
	sj.mu.Lock()
	if req.resolved {
		sj.mu.Unlock()
		return
	}
	req.resolved = true
	req.err = ErrDeadlineExceeded
	for i, o := range sj.snapReqs {
		if o == req {
			sj.snapReqs = append(sj.snapReqs[:i], sj.snapReqs[i+1:]...)
			break
		}
	}
	sj.shed++
	gate := sj.curGate
	sj.mu.Unlock()
	sj.s.metrics.streamShed.Inc()
	sj.s.metrics.expired.Inc()
	sj.s.obs.reg.CounterL("sched.rejections",
		telemetry.Labels{"reason": rejectReason(ErrDeadlineExceeded)}).Inc()
	close(req.done)
	if gate != nil {
		gate.Request()
	}
}

// buildRound fixes one round's parameters at dispatch time: the block
// window [cursor, ingested), the pending snapshot requests, and the
// per-member state clones the round will mutate. Called from
// buildExecLocked (s.mu held); takes sj.mu briefly (lock order: s.mu
// then sj.mu, never the reverse).
func (sj *StreamJob) buildRound(ex *jobExec) {
	p := len(ex.part.members)
	sj.procs.CompareAndSwap(0, int32(p))
	gate := core.NewPreemptGate()
	sj.mu.Lock()
	from := sj.cursor
	count := sj.ingested - sj.cursor
	ex.snapReqs = sj.snapReqs
	sj.snapReqs = nil
	clones := make([]*stream.State, p)
	for i := range clones {
		if sj.states == nil {
			clones[i] = stream.NewState(sj.spec.N, 0, sj.s.hasData)
		} else {
			clones[i] = sj.states[i].Clone()
		}
	}
	sj.curGate = gate
	snap := len(ex.snapReqs) > 0
	sj.mu.Unlock()
	ex.round = &stream.Round{
		Seed:      sj.spec.Seed,
		BlockRows: sj.spec.BlockRows,
		From:      from,
		Count:     count,
		Snapshot:  snap,
		Gate:      gate,
		Cfg:       core.Config{Tree: core.TreeGrid},
	}
	ex.streamStates = clones
	ex.gate = gate // Reconfigure's retire path requests ex.gate
}

// ensureStreamRound enqueues the stream's next round job unless one is
// already queued or in flight, or there is nothing to do. A fresh job
// per round: j.retries, the MaxRetries budget, is per round.
func (s *Server) ensureStreamRound(sj *StreamJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sj.mu.Lock()
	idle := sj.cursor >= sj.ingested && len(sj.snapReqs) == 0
	if sj.failed != nil || sj.active || idle {
		sj.mu.Unlock()
		return
	}
	sj.active = true
	sj.mu.Unlock()
	s.admitLocked(sj.spec, sj)
}

// finishStreamRound is the runner's stream epilogue: commit the round's
// state clones and resolve its snapshot waiters on success, or roll
// back and retry (or fail the stream) on error. A preempted round
// commits the blocks it folded before the cut — the gate's latched
// agreement makes the count identical on every rank — and requeues the
// remainder.
func (s *Server) finishStreamRound(ex *jobExec, out execOutcome, service time.Duration) {
	j := ex.job
	sj := j.stream
	rd := ex.round

	if out.err != nil {
		// Roll back: the dispatched clones die with the round. The
		// committed states still hold every block before cursor, and the
		// round's blocks rematerialize from the seed on retry — zero
		// blocks lost.
		sj.mu.Lock()
		sj.curGate = nil
		sj.snapReqs = append(pendingReqs(ex.snapReqs), sj.snapReqs...)
		sj.mu.Unlock()
		s.failOrRetry(j, out.err)
		return
	}

	folded := out.leader.folded
	snapped := rd.Snapshot && !out.preempted
	// Account the round before its commit wakes anyone, so a caller's
	// Drain or Snapshot is already in the SLO counters when it returns.
	s.metrics.streamBlocks.Add(float64(folded))
	for _, d := range out.leader.foldTimes {
		s.metrics.streamFold.Observe(d.Seconds())
	}
	if snapped {
		s.metrics.streamSnapshots.Inc()
		s.metrics.streamSnap.Observe(out.leader.snapTime.Seconds())
	}
	if out.preempted {
		s.metrics.preempted.Inc()
	}
	var resolve []*snapshotReq
	sj.mu.Lock()
	sj.states = ex.streamStates
	sj.cursor = rd.From + folded
	sj.rounds++
	sj.curGate = nil
	if snapped {
		sj.snapshots++
		for _, req := range ex.snapReqs {
			if req.resolved {
				continue
			}
			req.resolved = true
			req.blocks = sj.cursor
			req.counters = out.counters
			if out.leader.r != nil {
				req.r = out.leader.r.Clone()
			}
			resolve = append(resolve, req)
		}
	} else {
		// The barrier did not run (preempted, or every waiter was shed
		// before dispatch): surviving waiters go back for the next round.
		sj.snapReqs = append(pendingReqs(ex.snapReqs), sj.snapReqs...)
	}
	sj.active = false
	sj.cond.Broadcast()
	sj.mu.Unlock()
	closeReqs(resolve)
	s.succeed(j, JobResult{Partition: ex.part.index, Service: service, Counters: out.counters})

	// Blocks ingested during the round, a preempted remainder, or
	// requeued snapshot waiters start the next round.
	s.ensureStreamRound(sj)
}

// fail terminates the stream: pending and future calls complete with
// err. Takes only sj.mu, so it may run with s.mu held.
func (sj *StreamJob) fail(err error) {
	sj.mu.Lock()
	if sj.failed == nil {
		sj.failed = err
	}
	var resolve []*snapshotReq
	for _, req := range sj.snapReqs {
		if !req.resolved {
			req.resolved = true
			req.err = err
			resolve = append(resolve, req)
		}
	}
	sj.snapReqs = nil
	sj.active = false
	sj.cond.Broadcast()
	sj.mu.Unlock()
	closeReqs(resolve)
}

// closeReqs wakes the waiters of resolved snapshot requests.
func closeReqs(reqs []*snapshotReq) {
	for _, req := range reqs {
		if req.timer != nil {
			req.timer.Stop()
		}
		close(req.done)
	}
}

// pendingReqs filters the not-yet-resolved requests of a dispatched
// round (deadline sheds may have resolved some mid-flight).
func pendingReqs(reqs []*snapshotReq) []*snapshotReq {
	var out []*snapshotReq
	for _, req := range reqs {
		if !req.resolved {
			out = append(out, req)
		}
	}
	return out
}
