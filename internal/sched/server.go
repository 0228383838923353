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
	// CostOnly runs the world in virtual (LogGP) time and drops local
	// data (no R factors in results).
	CostOnly bool
	// Faults arms the fault-injection plan on the whole world; every
	// partition inherits it through the sub-communicators.
	Faults *mpi.FaultPlan
	// Registry receives per-job serving metrics (and, passed down to
	// the world, per-message transport metrics). Optional.
	Registry *telemetry.Registry
	// Logger receives structured per-job lifecycle records (submitted,
	// dispatched, preempted, completed, failed, retrying) with id/kind/
	// partition/outcome fields. Nil means silent.
	Logger *slog.Logger
	// TraceRing arms bounded ring-buffer span tracing on the world
	// (CostOnly servers, whose world runs virtual time): the server stays
	// traceable forever in O(capacity) memory, and World().TraceTail
	// exports the live tail.
	TraceRing *telemetry.RingConfig
}

const (
	// maxRetries bounds a job's re-dispatches after retryable failures.
	maxRetries = 2
	// recentJobs bounds the finished-job table kept for Jobs() and the
	// monitor's /jobs endpoint.
	recentJobs = 64
)

type serverMetrics struct {
	submitted, completed, failed, rejected *telemetry.Counter
	retries, preempted, steals             *telemetry.Counter
	queueWait, service, latency            *telemetry.Histogram
	jobMsgs, jobBytes                      *telemetry.Histogram
	queueDepth, inflight                   *telemetry.Gauge
	epoch, partitions                      *telemetry.Gauge
	streamBlocks, streamSnapshots          *telemetry.Counter
	streamFold, streamSnap                 *telemetry.Histogram
}

func newServerMetrics(reg *telemetry.Registry) serverMetrics {
	for name, help := range map[string]string{
		"sched.jobs.submitted":          "jobs admitted to the queue",
		"sched.jobs.completed":          "jobs finished successfully",
		"sched.jobs.failed":             "jobs finished with an error",
		"sched.jobs.rejected":           "submissions refused at admission",
		"sched.jobs.retries":            "re-dispatches after retryable failures",
		"sched.jobs.preempted":          "tree-stage checkpoints taken from running jobs",
		"sched.work.steals":             "jobs stolen from another partition's queue",
		"sched.rejections":              "rejections and failures by typed reason",
		"sched.queue.depth":             "jobs currently queued (per-partition series labeled)",
		"sched.inflight":                "jobs currently dispatched and running",
		"sched.epoch":                   "current partition-plan epoch",
		"sched.partitions":              "partitions in the current epoch",
		"sched.queue_wait_seconds":      "submission-to-dispatch latency",
		"sched.latency_seconds":         "submission-to-completion latency",
		"sched.service_seconds":         "dispatch-to-completion service time",
		"sched.stream.blocks":           "stream blocks folded and committed",
		"sched.stream.snapshots":        "stream snapshot barriers served",
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
	// while taking a queue's internal lock, never the reverse.
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
	var opts []mpi.Option
	if cfg.CostOnly {
		// The serving world must stay on the goroutine runtime even in
		// cost-only mode: rank goroutines block on Go channels fed by the
		// partition runners, which the cooperative event engine cannot
		// schedule around (ranks there may only block inside the Comm
		// API).
		opts = append(opts, mpi.CostOnly(), mpi.GoroutineEngine())
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
		obs:     newObserver(cfg.Logger, reg),
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

// addQueuedLocked adjusts the admitted-undispatched count and mirrors it
// on the aggregate depth gauge. Caller holds s.mu.
func (s *Server) addQueuedLocked(delta int) {
	s.queuedN += delta
	s.metrics.queueDepth.Set(float64(s.queuedN))
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
