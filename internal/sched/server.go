// Package sched is the serving layer: a job scheduler multiplexing many
// factorization requests over one simulated grid. The grid is
// space-shared into site-aligned partitions — collective-free Comm.Sub
// sub-worlds that keep fault injection, telemetry and cost accounting —
// and jobs run concurrently, one at a time per partition, exactly as a
// QCG-style meta-scheduler places successive TSQR runs on grid subsets.
//
// The partitioning is elastic: Reconfigure retires the current epoch's
// partitions and forms a new set (the autoscaler in internal/elastic
// drives it from SLO signals, re-forming over survivors after faults);
// preemptible jobs checkpoint at TSQR tree-stage boundaries and resume —
// bitwise identically — on whichever partition picks them up next; and
// an idle partition steals queued work from loaded ones, so one hot
// queue cannot starve the rest of the grid.
//
// The code follows a job's life: admission here, placement (place.go),
// partition epochs (epoch.go), and one execution from build to finish
// (exec.go).
package sched

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"gridqr/internal/grid"
	"gridqr/internal/mpi"
	"gridqr/internal/telemetry"
)

// Config configures a Server.
type Config struct {
	// Grid is the platform (required).
	Grid *grid.Grid
	// Plan partitions the grid; zero value means one partition per site.
	Plan Plan
	// QueueCap bounds the admission queue (default 64). A full queue
	// rejects Submit with ErrQueueFull — backpressure, not buffering.
	QueueCap int
	// MaxBatch is ignored: every execution serves exactly one job. The
	// field remains so that existing configurations still compile.
	MaxBatch int
	// MaxRetries bounds re-dispatches after retryable failures
	// (default 2).
	MaxRetries int
	// Virtual runs the world in virtual (LogGP) time; CostOnly
	// additionally drops local data (no R factors in results).
	Virtual  bool
	CostOnly bool
	// Faults arms the fault-injection plan on the whole world; every
	// partition inherits it through the sub-communicators.
	Faults *mpi.FaultPlan
	// Registry receives per-job serving metrics (and, passed down to
	// the world, per-message transport metrics). Optional.
	Registry *telemetry.Registry
	// Logger receives structured per-job lifecycle records (submitted,
	// dispatched, preempted, completed, failed, retrying) with id/kind/
	// partition/priority/outcome fields. Nil means silent.
	Logger *slog.Logger
	// TraceRing arms bounded ring-buffer span tracing on the world
	// (virtual modes only): the server stays traceable forever in
	// O(capacity) memory, and TraceTail exports the live tail.
	TraceRing *telemetry.RingConfig
	// RecentJobs bounds the finished-job table kept for Jobs() and the
	// monitor's /jobs endpoint (default 64).
	RecentJobs int
}

type serverMetrics struct {
	submitted, completed, failed, rejected *telemetry.Counter
	canceled, expired, retries             *telemetry.Counter
	preempted, steals                      *telemetry.Counter
	queueWait, service, latency            *telemetry.Histogram
	jobMsgs, jobBytes                      *telemetry.Histogram
	queueDepth, inflight                   *telemetry.Gauge
	epoch, partitions                      *telemetry.Gauge
	streamBlocks, streamSnapshots          *telemetry.Counter
	streamShed                             *telemetry.Counter
	streamFold, streamSnap                 *telemetry.Histogram
}

func newServerMetrics(reg *telemetry.Registry) serverMetrics {
	for name, help := range map[string]string{
		"sched.jobs.submitted":          "jobs admitted to the queue",
		"sched.jobs.completed":          "jobs finished successfully",
		"sched.jobs.failed":             "jobs finished with an error",
		"sched.jobs.rejected":           "submissions refused at admission",
		"sched.jobs.expired":            "jobs that missed their deadline",
		"sched.jobs.retries":            "re-dispatches after retryable failures",
		"sched.jobs.preempted":          "tree-stage checkpoints taken from running jobs",
		"sched.work.steals":             "jobs stolen from another partition's queue",
		"sched.rejections":              "rejections, drops and failures by typed reason",
		"sched.queue.depth":             "jobs currently queued (per-partition series labeled)",
		"sched.inflight":                "jobs currently dispatched and running",
		"sched.epoch":                   "current partition-plan epoch",
		"sched.partitions":              "partitions in the current epoch",
		"sched.queue_wait_seconds":      "submission-to-dispatch latency",
		"sched.latency_seconds":         "submission-to-completion latency",
		"sched.service_seconds":         "dispatch-to-completion service time",
		"sched.stream.blocks":           "stream blocks folded and committed",
		"sched.stream.snapshots":        "stream snapshot barriers served",
		"sched.stream.shed":             "stream snapshot requests shed at their deadline",
		"sched.stream.fold_seconds":     "per-block stream fold latency",
		"sched.stream.snapshot_seconds": "stream snapshot barrier latency",
	} {
		reg.SetHelp(name, help)
	}
	return serverMetrics{
		submitted:  reg.Counter("sched.jobs.submitted"),
		completed:  reg.Counter("sched.jobs.completed"),
		failed:     reg.Counter("sched.jobs.failed"),
		rejected:   reg.Counter("sched.jobs.rejected"),
		canceled:   reg.Counter("sched.jobs.canceled"),
		expired:    reg.Counter("sched.jobs.expired"),
		retries:    reg.Counter("sched.jobs.retries"),
		preempted:  reg.Counter("sched.jobs.preempted"),
		steals:     reg.Counter("sched.work.steals"),
		queueWait:  reg.Histogram("sched.queue_wait_seconds"),
		service:    reg.Histogram("sched.service_seconds"),
		latency:    reg.Histogram("sched.latency_seconds"),
		jobMsgs:    reg.Histogram("sched.job.msgs"),
		jobBytes:   reg.Histogram("sched.job.bytes"),
		queueDepth: reg.Gauge("sched.queue.depth"),
		inflight:   reg.Gauge("sched.inflight"),
		epoch:      reg.Gauge("sched.epoch"),
		partitions: reg.Gauge("sched.partitions"),

		streamBlocks:    reg.Counter("sched.stream.blocks"),
		streamSnapshots: reg.Counter("sched.stream.snapshots"),
		streamShed:      reg.Counter("sched.stream.shed"),
		streamFold:      reg.Histogram("sched.stream.fold_seconds"),
		streamSnap:      reg.Histogram("sched.stream.snapshot_seconds"),
	}
}

// Server multiplexes factorization jobs over the grid.
type Server struct {
	cfg     Config
	world   *mpi.World
	hasData bool
	metrics serverMetrics
	obs     *observer

	// rankChans feed the rank goroutines: epoch re-forms and executions,
	// in order. Buffered so a dead rank's pending command never blocks a
	// sender.
	rankChans []chan rankCmd

	// mu guards the scheduling state below. Lock order: mu may be held
	// while taking a queue's internal lock, never the reverse; queue
	// onDrop callbacks therefore run with both held and must not block.
	mu            sync.Mutex
	workCond      *sync.Cond // signaled whenever work may be available
	workGen       uint64     // bumped on every signal; runners re-check
	parts         []*partition
	epoch         int
	queuedN       int    // admitted, undispatched jobs (the QueueCap bound)
	inflightN     int    // dispatched executions not yet finished
	pending       []*Job // jobs displaced mid-Reconfigure, re-routed at install
	reconfiguring bool
	closing       bool

	// reconfigMu serializes Reconfigure against itself and Close.
	reconfigMu sync.Mutex
	runnerWG   sync.WaitGroup

	nextID  atomic.Int64
	nextSeq atomic.Int64

	// execHook, when set (tests only), observes every execution as it is
	// built — before any rank starts — so tests can latch a preemption
	// cut deterministically regardless of scheduling. Guarded by mu.
	execHook func(*jobExec)

	runDone   chan struct{}
	closed    atomic.Bool
	closeOnce sync.Once
}

// Start builds the world, forms the plan's partitions and begins
// serving. Close must be called to release the rank goroutines.
func Start(cfg Config) *Server {
	if cfg.Grid == nil {
		panic("sched: Config.Grid is required")
	}
	if len(cfg.Plan.Groups) == 0 {
		cfg.Plan = PerSite(cfg.Grid)
	}
	if err := cfg.Plan.validate(cfg.Grid); err != nil {
		panic(err)
	}
	// A static plan's groups are also consecutive (topology-aligned);
	// only Reconfigure's re-formed plans keep holes.
	for gi, members := range cfg.Plan.Groups {
		if members[len(members)-1]-members[0] != len(members)-1 {
			panic(fmt.Errorf("sched: partition %d ranks not consecutive", gi))
		}
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	var opts []mpi.Option
	switch {
	case cfg.CostOnly:
		// The serving world must stay on the goroutine runtime even in
		// cost-only mode: rank goroutines block on Go channels fed by the
		// partition runners, which the cooperative event engine cannot
		// schedule around (ranks there may only block inside the Comm
		// API).
		opts = append(opts, mpi.CostOnly(), mpi.GoroutineEngine())
	case cfg.Virtual:
		opts = append(opts, mpi.Virtual())
	}
	if cfg.Faults != nil {
		opts = append(opts, mpi.WithFaults(cfg.Faults))
	}
	if cfg.TraceRing != nil {
		opts = append(opts, mpi.TracedRing(*cfg.TraceRing))
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	opts = append(opts, mpi.WithMetrics(reg))

	s := &Server{
		cfg:     cfg,
		world:   mpi.NewWorld(cfg.Grid, opts...),
		hasData: !cfg.CostOnly,
		metrics: newServerMetrics(reg),
		obs:     newObserver(cfg.Logger, reg, cfg.RecentJobs),
		runDone: make(chan struct{}),
	}
	s.workCond = sync.NewCond(&s.mu)
	s.rankChans = make([]chan rankCmd, cfg.Grid.Procs())
	for r := range s.rankChans {
		s.rankChans[r] = make(chan rankCmd, 8)
	}

	s.mu.Lock()
	s.installPartitionsLocked(cfg.Plan)
	s.sendEpochLocked()
	s.spawnRunnersLocked()
	s.mu.Unlock()

	go func() {
		s.world.Run(s.rankMain)
		close(s.runDone)
	}()
	return s
}

// World exposes the underlying runtime (counters, clocks, dead ranks)
// for tests and the bench harness.
func (s *Server) World() *mpi.World { return s.world }

// Partitions returns the number of space-shares in the current epoch.
func (s *Server) Partitions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.parts)
}

// Epoch returns the current partition-plan epoch (0 at Start, bumped by
// every Reconfigure).
func (s *Server) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	Submitted, Completed, Failed, Rejected int64
	Canceled, Expired, Retries             int64
	Preempted, Steals                      int64
}

func (s *Server) Stats() Stats {
	m := &s.metrics
	return Stats{
		Submitted: int64(m.submitted.Value()), Completed: int64(m.completed.Value()),
		Failed: int64(m.failed.Value()), Rejected: int64(m.rejected.Value()),
		Canceled: int64(m.canceled.Value()), Expired: int64(m.expired.Value()),
		Retries: int64(m.retries.Value()), Preempted: int64(m.preempted.Value()),
		Steals: int64(m.steals.Value()),
	}
}

// addQueuedLocked adjusts the admitted-undispatched count and mirrors it
// on the aggregate depth gauge. Caller holds s.mu.
func (s *Server) addQueuedLocked(delta int) {
	s.queuedN += delta
	s.metrics.queueDepth.Set(float64(s.queuedN))
}

// queueDrop observes a job a partition queue completed itself (canceled,
// expired at pop time). Runs with s.mu and the queue lock held — every
// queue mutation goes through the scheduler lock — so it only adjusts
// counters and resolves the future.
func (s *Server) queueDrop(j *Job, err error) {
	s.addQueuedLocked(-1)
	s.fail(j, err)
}

// Submit validates and enqueues a job, returning its future. Typed
// errors: *SpecError for infeasible specs, ErrQueueFull under
// backpressure, ErrServerClosed after Close. A job admitted when every
// partition has lost ranks completes at once with ErrNoPartition.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if s.closed.Load() {
		s.reject(spec, ErrServerClosed)
		return nil, ErrServerClosed
	}
	if spec.Kind == KindStream {
		err := &SpecError{Reason: "stream jobs are long-lived; use SubmitStream"}
		s.reject(spec, err)
		return nil, err
	}
	s.mu.Lock()
	err := s.validate(spec)
	if err == nil && s.queuedN >= s.cfg.QueueCap {
		err = ErrQueueFull
	}
	if err != nil {
		s.mu.Unlock()
		s.reject(spec, err)
		return nil, err
	}
	j := s.admitLocked(spec, nil)
	s.mu.Unlock()
	return j, nil
}

// admitLocked creates the job for an admitted spec (a stream round when
// sj is set), accounts its submission and routes it. Caller holds s.mu.
func (s *Server) admitLocked(spec JobSpec, sj *StreamJob) *Job {
	j := &Job{
		spec:   spec,
		id:     s.nextID.Add(1),
		seq:    s.nextSeq.Add(1),
		submit: time.Now(),
		done:   make(chan struct{}),
		avoid:  -1,
		stream: sj,
	}
	s.metrics.submitted.Inc()
	s.obs.submitted(j)
	s.requeueLocked(j, -1)
	return j
}

// reject accounts one refused submission: the aggregate counter, the
// reason-labeled series and the structured log record.
func (s *Server) reject(spec JobSpec, err error) {
	s.metrics.rejected.Inc()
	s.obs.rejected(spec, err)
}

// Close drains the queues (queued jobs still run), waits for in-flight
// executions, then shuts the rank goroutines down. Submissions after
// Close fail with ErrServerClosed.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		s.reconfigMu.Lock()
		defer s.reconfigMu.Unlock()
		s.mu.Lock()
		s.closing = true
		s.workGen++
		s.workCond.Broadcast()
		s.mu.Unlock()
		s.runnerWG.Wait()
		// Anything still queued has no runner left (all partitions lost
		// ranks); complete it typed.
		s.mu.Lock()
		for _, j := range s.takeAllLocked() {
			s.fail(j, ErrNoPartition)
		}
		s.mu.Unlock()
		for _, ch := range s.rankChans {
			close(ch)
		}
		<-s.runDone
	})
}
