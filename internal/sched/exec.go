package sched

import (
	"errors"
	"fmt"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
	"gridqr/internal/stream"
	"gridqr/internal/telemetry"
)

// jobExec is one dispatched execution of one job: a TSQR stage walk
// (fresh or resumed) or one stream round.
type jobExec struct {
	job     *Job
	attempt int // retries + preemptions; keeps comm labels unique
	part    *partition
	gate    *core.PreemptGate     // non-nil for preemptible executions
	resume  *core.StageCheckpoint // non-nil to resume from a checkpoint
	reports chan memberReport

	// Stream rounds only: the round parameters fixed at dispatch so every
	// member runs the same round, the per-member folder clones the round
	// mutates (committed back on success, discarded on failure), and the
	// snapshot requests this round's barrier will serve.
	round    *stream.Round
	folders  []*stream.Folder
	snapReqs []*snapshotReq
}

// memberReport is one partition member's out-of-band account of an
// execution — result payload and traffic deltas. Reporting uses Go
// channels, not simulated messages, so job accounting adds no MPI
// traffic (it models the middleware's control plane, which the paper's
// counts exclude).
type memberReport struct {
	member     int
	err        error
	counters   mpi.CounterSnapshot // this member's traffic during the execution
	clockDelta float64             // virtual seconds spent (virtual mode)
	preempted  bool
	ckpt       *core.RankCheckpoint
	r          *matrix.Dense // the job's result is the leader's
	// Stream rounds: blocks folded (identical on every member — the
	// gate's latched agreement) and the SLO latency samples.
	folded    int
	foldTimes []time.Duration
	snapTime  time.Duration
}

// runner is a partition's scheduling loop: pop (or steal) the best
// runnable job, dispatch it to the partition's ranks, collect their
// reports and finish the job. It exits when the partition is retired or
// the server has closed and fully drained.
func (s *Server) runner(p *partition) {
	defer s.runnerWG.Done()
	for {
		ex := s.nextExec(p)
		if ex == nil {
			return
		}
		s.dispatchExec(ex)
		out := s.watchExec(ex)
		j := ex.job
		service := time.Since(j.dispatched)
		if s.world.Virtual() {
			service = time.Duration(out.maxClock * float64(time.Second))
		}
		p.cur.Store(nil)

		// Retire the partition before re-routing its work if a member
		// died during the execution, so placement skips it.
		s.mu.Lock()
		s.checkHealthLocked(p)
		s.mu.Unlock()

		switch {
		case ex.round != nil:
			s.finishStreamRound(ex, out, service)
		case out.err != nil:
			s.failOrRetry(j, out.err)
		case out.preempted:
			s.finishPreempted(ex, out)
		default:
			addCounters(&out.counters, j.partial)
			j.ckpt = nil
			s.succeed(j, JobResult{
				R: out.leader.r, Partition: p.index, Service: service, Counters: out.counters,
			})
		}
		s.metrics.inflight.Set(float64(s.obs.inFlight()))

		s.mu.Lock()
		s.inflightN--
		s.workGen++
		s.workCond.Broadcast()
		s.mu.Unlock()
	}
}

// nextExec blocks until the partition has an execution to run, stealing
// from other partitions' queues when its own is empty. Returns nil when
// the partition is retired or the server has closed and drained.
func (s *Server) nextExec(p *partition) *jobExec {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if p.retired.Load() {
			return nil
		}
		gen := s.workGen
		if j, ok := p.q.pop(nil); ok {
			s.addQueuedLocked(-1)
			return s.buildExecLocked(p, j)
		}
		if j, ok := s.stealLocked(p); ok {
			s.metrics.steals.Inc()
			return s.buildExecLocked(p, j)
		}
		if s.closing && s.queuedN == 0 && s.inflightN == 0 {
			return nil
		}
		if s.workGen == gen {
			s.workCond.Wait()
		}
	}
}

// buildExecLocked turns a popped job into an execution on p: the stream
// round's parameters or the preemption wiring. Caller holds s.mu.
func (s *Server) buildExecLocked(p *partition, j *Job) *jobExec {
	ex := &jobExec{
		job:     j,
		attempt: j.retries + j.preempts,
		part:    p,
		reports: make(chan memberReport, len(p.members)),
	}
	if j.stream != nil {
		j.stream.buildRound(ex)
	}
	if j.spec.Preemptible {
		ex.gate = core.NewPreemptGate()
		if j.ckpt != nil && j.ckpt.Procs == len(p.members) && j.ckpt.N == j.spec.N {
			ex.resume = j.ckpt
		} else {
			// The checkpoint was taken on a different partition size; it
			// cannot be replayed here, so the job restarts from scratch.
			j.ckpt = nil
			j.partial = mpi.CounterSnapshot{}
		}
	}
	j.avoid = -1
	if s.execHook != nil {
		s.execHook(ex)
	}
	s.inflightN++
	p.cur.Store(ex)
	return ex
}

// dispatchExec hands an execution to every live member of the partition.
func (s *Server) dispatchExec(ex *jobExec) {
	j := ex.job
	j.dispatched = time.Now()
	s.metrics.queueWait.Observe(j.dispatched.Sub(j.submit).Seconds())
	s.obs.dispatched(j, ex.part.index)
	s.metrics.inflight.Set(float64(s.obs.inFlight()))
	for _, wr := range ex.part.members {
		if s.world.RankDead(wr) {
			continue // the watcher's poll reports it
		}
		s.rankChans[wr] <- rankCmd{ex: ex}
	}
}

// execOutcome aggregates one execution's member reports.
type execOutcome struct {
	leader    memberReport
	counters  mpi.CounterSnapshot
	maxClock  float64
	err       error
	preempted bool
	frags     []*core.RankCheckpoint
}

// watchExec collects every member's report for one execution. With a
// fault plan armed it polls for member deaths, since a killed rank
// reports nothing.
func (s *Server) watchExec(ex *jobExec) execOutcome {
	part := ex.part
	n := len(part.members)
	got := make(map[int]memberReport, n)
	var tickC <-chan time.Time
	if s.cfg.Faults != nil {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		tickC = tick.C
	}
	for len(got) < n {
		select {
		case rep := <-ex.reports:
			got[rep.member] = rep
		case <-tickC:
			for m, wr := range part.members {
				if _, ok := got[m]; !ok && s.world.RankDead(wr) {
					got[m] = memberReport{
						member: m,
						err:    &mpi.RankFailedError{Rank: wr, Op: "serve"},
					}
				}
			}
		}
	}

	var out execOutcome
	for m := 0; m < n; m++ {
		rep := got[m]
		addCounters(&out.counters, rep.counters)
		if rep.clockDelta > out.maxClock {
			out.maxClock = rep.clockDelta
		}
		if rep.err != nil && out.err == nil {
			out.err = rep.err
		}
		if rep.preempted {
			out.preempted = true
		}
		if rep.ckpt != nil {
			out.frags = append(out.frags, rep.ckpt)
		}
	}
	out.leader = got[0]
	return out
}

// finishPreempted persists the execution's checkpoint on the job and
// requeues it, preferring a different partition: the stage-consistent R
// fragments are the whole job state, so the resume is bitwise-identical
// wherever a same-size partition picks it up.
func (s *Server) finishPreempted(ex *jobExec, out execOutcome) {
	j := ex.job
	addCounters(&j.partial, out.counters)
	j.ckpt = core.AssembleCheckpoint(out.frags)
	j.preempts++
	j.avoid = ex.part.index
	s.metrics.preempted.Inc()
	s.obs.preempted(j, ex.part.index)
	s.mu.Lock()
	s.requeueLocked(j, ex.part.index)
	s.mu.Unlock()
}

// failOrRetry requeues a job after a retryable failure (rank death,
// timeout) while retry budget and — for jobs, not stream rounds, which
// are continuations of an open stream — admission room remain; otherwise
// it fails the job with the error. A checkpointed job retries from its
// last complete checkpoint — fragments from the failed attempt are
// discarded, since a dead member's share is missing.
func (s *Server) failOrRetry(j *Job, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !retryable(err) || j.retries >= maxRetries ||
		(j.stream == nil && s.queuedN >= s.cfg.QueueCap) {
		s.fail(j, err)
		return
	}
	j.retries++
	if sj := j.stream; sj != nil {
		sj.mu.Lock()
		sj.retries++
		sj.mu.Unlock()
	}
	s.metrics.retries.Inc()
	s.obs.retried(j, err)
	s.requeueLocked(j, -1)
}

// succeed completes a served job: res carries what its last execution
// produced, and succeed adds the job's own history before accounting it.
func (s *Server) succeed(j *Job, res JobResult) {
	res.Retries, res.Preemptions = j.retries, j.preempts
	res.QueueWait = j.dispatched.Sub(j.submit)
	s.metrics.completed.Inc()
	s.metrics.service.Observe(res.Service.Seconds())
	s.metrics.latency.Observe(time.Since(j.submit).Seconds())
	t := res.Counters.Total()
	s.metrics.jobMsgs.Observe(float64(t.Msgs))
	s.metrics.jobBytes.Observe(t.Bytes)
	s.obs.completed(j, &res)
	j.complete(res)
}

// fail completes a job that will not run again: out of retries or out
// of partitions. A stream round takes its stream down
// with it. Takes no scheduler lock, so it may run with s.mu held.
func (s *Server) fail(j *Job, err error) {
	if j.stream != nil {
		j.stream.fail(err)
	}
	s.metrics.failed.Inc()
	s.obs.reg.CounterL("sched.rejections",
		telemetry.Labels{"reason": rejectReason(err)}).Inc()
	s.obs.failed(j, err)
	wait := time.Since(j.submit)
	if !j.dispatched.IsZero() {
		wait = j.dispatched.Sub(j.submit)
	}
	j.complete(JobResult{
		Err: err, Partition: -1, Retries: j.retries, Preemptions: j.preempts,
		QueueWait: wait,
	})
}

// runExec executes one dispatched job on one member rank and reports out
// of band. A kill panic from the fault plan propagates (the rank is
// dead; the watcher notices); any other panic becomes this member's
// error report so the serving loop survives algorithm bugs.
func (s *Server) runExec(ctx *mpi.Ctx, pcomm *mpi.Comm, member int, ex *jobExec) {
	reported := false
	report := func(rep memberReport) {
		rep.member = member
		ex.reports <- rep
		reported = true
	}
	defer func() {
		if p := recover(); p != nil {
			if mpi.IsKillPanic(p) {
				panic(p)
			}
			if !reported {
				report(memberReport{err: panicError(p)})
			}
		}
	}()
	before := ctx.LocalCounters()
	clock0 := ctx.Now()
	// A fresh sub-communicator per execution attempt gives each job its
	// own tag namespace for free (Sub is collective-free), so concurrent,
	// consecutive and resumed jobs can never alias messages.
	all := make([]int, pcomm.Size())
	for i := range all {
		all[i] = i
	}
	jcomm := pcomm.Sub(all, fmt.Sprintf("j%d.a%d", ex.job.id, ex.attempt))
	rep := s.execute(ctx, jcomm, ex)
	rep.counters = counterDelta(ctx.LocalCounters(), before)
	rep.clockDelta = ctx.Now() - clock0
	report(rep)
}

// execute runs the job on this member's rank of the job communicator.
// TSQR always walks the staged entry points: a fresh job runs
// FactorizeStaged, a resumed one replays its checkpoint's merge
// schedule. Without a gate (the job is not preemptible) the walk is
// exactly Factorize; with one, both stop at a consistent tree-stage
// boundary when the gate fires and report their R fragments as the
// checkpoint.
func (s *Server) execute(ctx *mpi.Ctx, jcomm *mpi.Comm, ex *jobExec) memberReport {
	me := jcomm.Rank()
	spec := ex.job.spec
	if spec.Kind == KindStream {
		// A dedicated long-lived stream context: Dup gives the round a
		// tag namespace disjoint from anything else on the job path, so
		// a retried round after a failure can never alias a stale
		// message from the attempt it replaces.
		res := stream.RunRound(jcomm.Dup("stream"), ex.folders[me], *ex.round)
		return memberReport{r: res.R, preempted: res.Preempted, folded: res.Folded,
			foldTimes: res.FoldTimes, snapTime: res.SnapTime}
	}

	var res *core.StagedResult
	if ex.resume != nil {
		res = core.ResumeStaged(jcomm, ex.resume, ex.gate)
	} else {
		offsets := scalapack.BlockOffsets(spec.M, jcomm.Size())
		in := core.Input{M: spec.M, N: spec.N, Offsets: offsets}
		if ctx.HasData() {
			in.Local = matrix.RandomRows(offsets[me+1]-offsets[me], spec.N, offsets[me], spec.Seed)
		}
		res = core.FactorizeStaged(jcomm, in, core.Config{Tree: core.TreeGrid}, ex.gate)
	}
	return memberReport{r: res.R, preempted: res.Preempted, ckpt: res.Ckpt}
}

// retryable reports whether an execution error is worth another
// partition: failures injected by the fault layer, not numerics.
func retryable(err error) bool {
	var rfe *mpi.RankFailedError
	var te *mpi.TimeoutError
	return errors.As(err, &rfe) || errors.As(err, &te)
}

func panicError(p any) error {
	if err, ok := p.(error); ok {
		return err
	}
	return fmt.Errorf("sched: execution panic: %v", p)
}

func counterDelta(after, before mpi.CounterSnapshot) mpi.CounterSnapshot {
	var d mpi.CounterSnapshot
	for c := range after.PerClass {
		d.PerClass[c].Msgs = after.PerClass[c].Msgs - before.PerClass[c].Msgs
		d.PerClass[c].Bytes = after.PerClass[c].Bytes - before.PerClass[c].Bytes
	}
	d.Flops = after.Flops - before.Flops
	return d
}

func addCounters(dst *mpi.CounterSnapshot, src mpi.CounterSnapshot) {
	for c := range src.PerClass {
		dst.PerClass[c].Msgs += src.PerClass[c].Msgs
		dst.PerClass[c].Bytes += src.PerClass[c].Bytes
	}
	dst.Flops += src.Flops
}
