package sched

import (
	"errors"
	"io"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"time"

	"gridqr/internal/telemetry"
)

// Serving observability: the job table behind the monitor's /jobs
// endpoint, the SLO snapshot behind gridbench -serve reporting, labeled
// rejection/outcome series for Prometheus, and structured per-job
// lifecycle logging. Everything here observes the scheduling hot paths
// from the outside — a nil Logger and an unused Jobs() cost a map insert
// and a couple of atomic stores per job, nothing per message.

// JobInfo is one row of the serving job table: a queued, running or
// recently finished job in JSON-ready form.
type JobInfo struct {
	ID        int64   `json:"id"`
	Kind      string  `json:"kind"`
	M         int     `json:"m"`
	N         int     `json:"n"`
	Status    string  `json:"status"` // queued | running | done | failed
	Partition int     `json:"partition"`
	Retries   int     `json:"retries,omitempty"`
	QueueWait float64 `json:"queue_wait_seconds"`
	Service   float64 `json:"service_seconds,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// SLOQuantiles summarizes one latency distribution; quantile values are
// histogram bucket upper bounds (seconds).
type SLOQuantiles struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

func quantiles(h *telemetry.Histogram) SLOQuantiles {
	qs := h.Quantiles([]float64{0.5, 0.99, 0.999})
	return SLOQuantiles{Count: h.Count(), Mean: h.Mean(), P50: qs[0], P99: qs[1], P999: qs[2]}
}

// SLO is the point-in-time service-level snapshot of a running server:
// instantaneous load plus the cumulative outcome counters and latency
// distributions the serving SLOs are stated against. Latency is
// submission-to-completion, QueueWait submission-to-dispatch.
type SLO struct {
	QueueDepth int          `json:"queue_depth"`
	InFlight   int          `json:"in_flight"`
	Submitted  int64        `json:"submitted"`
	Completed  int64        `json:"completed"`
	Failed     int64        `json:"failed"`
	Rejected   int64        `json:"rejected"`
	Retries    int64        `json:"retries"`
	Preempted  int64        `json:"preempted"`
	Steals     int64        `json:"steals"`
	Epoch      int          `json:"epoch"`
	Partitions int          `json:"partitions"`
	Latency    SLOQuantiles `json:"latency"`
	QueueWait  SLOQuantiles `json:"queue_wait"`

	// Streaming ingest: cumulative fold/snapshot counts and the per-block
	// fold and snapshot barrier latency distributions.
	StreamBlocks    int64        `json:"stream_blocks,omitempty"`
	StreamSnapshots int64        `json:"stream_snapshots,omitempty"`
	StreamFold      SLOQuantiles `json:"stream_fold,omitempty"`
	StreamSnapshot  SLOQuantiles `json:"stream_snapshot,omitempty"`
}

// SLO returns the current service-level snapshot.
func (s *Server) SLO() SLO {
	m := &s.metrics
	s.mu.Lock()
	depth, epoch, nparts := s.queuedN, s.epoch, len(s.parts)
	s.mu.Unlock()
	return SLO{
		QueueDepth: depth,
		InFlight:   s.obs.inFlight(),
		Submitted:  int64(m.submitted.Value()),
		Completed:  int64(m.completed.Value()),
		Failed:     int64(m.failed.Value()),
		Rejected:   int64(m.rejected.Value()),
		Retries:    int64(m.retries.Value()),
		Preempted:  int64(m.preempted.Value()),
		Steals:     int64(m.steals.Value()),
		Epoch:      epoch,
		Partitions: nparts,
		Latency:    quantiles(m.latency),
		QueueWait:  quantiles(m.queueWait),

		StreamBlocks:    int64(m.streamBlocks.Value()),
		StreamSnapshots: int64(m.streamSnapshots.Value()),
		StreamFold:      quantiles(m.streamFold),
		StreamSnapshot:  quantiles(m.streamSnap),
	}
}

// Jobs returns the serving job table: queued jobs (admission order),
// running jobs, and the most recently finished jobs (newest first, up to
// recentJobs).
func (s *Server) Jobs() []JobInfo {
	var out []JobInfo
	var queued []*Job
	s.mu.Lock()
	for _, p := range s.parts {
		queued = append(queued, p.q.snapshot()...)
	}
	queued = append(queued, s.pending...)
	s.mu.Unlock()
	sort.Slice(queued, func(i, j int) bool { return queued[i].seq < queued[j].seq })
	for _, j := range queued {
		out = append(out, JobInfo{
			ID: j.id, Kind: j.spec.Kind.String(), M: j.spec.M, N: j.spec.N,
			Status: "queued", Partition: -1,
			QueueWait: time.Since(j.submit).Seconds(),
		})
	}
	out = append(out, s.obs.table()...)
	return out
}

// rejectReason classifies a Submit/drop error into the label value of
// the sched.rejections series.
func rejectReason(err error) string {
	var se *SpecError
	switch {
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrServerClosed):
		return "server_closed"
	case errors.Is(err, ErrNoPartition):
		return "no_partition"
	case errors.As(err, &se):
		return "bad_spec"
	default:
		return "other"
	}
}

// observer carries the job table and the structured logger. All methods
// are safe for concurrent use; the scheduling paths call them outside
// any scheduler lock.
type observer struct {
	log *slog.Logger
	reg *telemetry.Registry

	mu      sync.Mutex
	running map[int64]JobInfo
	recent  []JobInfo // ring, newest at (next-1+len)%recentJobs
	next    int
}

func newObserver(log *slog.Logger, reg *telemetry.Registry) *observer {
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &observer{log: log, reg: reg, running: map[int64]JobInfo{}}
}

func (o *observer) inFlight() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.running)
}

// table returns running jobs (ascending id) followed by finished jobs,
// newest first.
func (o *observer) table() []JobInfo {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]JobInfo, 0, len(o.running)+len(o.recent))
	for _, ji := range o.running {
		out = append(out, ji)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	fin := len(out)
	for i := len(o.recent) - 1; i >= 0; i-- {
		out = append(out, o.recent[(o.next+i)%len(o.recent)])
	}
	// Finished rows present newest-first; partitions complete jobs
	// concurrently, so impose ID order rather than racy ring order.
	sort.Slice(out[fin:], func(i, j int) bool { return out[fin+i].ID > out[fin+j].ID })
	return out
}

func (o *observer) finish(ji JobInfo) {
	o.mu.Lock()
	delete(o.running, ji.ID)
	if len(o.recent) < recentJobs {
		o.recent = append(o.recent, ji)
		o.next = 0 // ring not yet wrapped; oldest is index 0
	} else {
		o.recent[o.next] = ji
		o.next = (o.next + 1) % recentJobs
	}
	o.mu.Unlock()
}

// jobAttrs are the common structured-log fields of one job.
func jobAttrs(j *Job) []any {
	return []any{"id", j.id, "kind", j.spec.Kind.String(),
		"m", j.spec.M, "n", j.spec.N}
}

func (o *observer) submitted(j *Job) {
	o.log.Debug("job submitted", jobAttrs(j)...)
}

func (o *observer) rejected(spec JobSpec, err error) {
	reason := rejectReason(err)
	o.reg.CounterL("sched.rejections", telemetry.Labels{"reason": reason}).Inc()
	o.log.Warn("job rejected", "kind", spec.Kind.String(), "m", spec.M, "n", spec.N,
		"reason", reason, "err", err)
}

func (o *observer) dispatched(j *Job, partition int) {
	ji := JobInfo{
		ID: j.id, Kind: j.spec.Kind.String(), M: j.spec.M, N: j.spec.N,
		Status: "running", Partition: partition,
		Retries: j.retries, QueueWait: j.dispatched.Sub(j.submit).Seconds(),
	}
	o.mu.Lock()
	o.running[j.id] = ji
	o.mu.Unlock()
	o.log.Debug("job dispatched", append(jobAttrs(j), "partition", partition)...)
}

func (o *observer) completed(j *Job, res *JobResult) {
	o.reg.CounterL("sched.jobs.by_kind", telemetry.Labels{"kind": j.spec.Kind.String()}).Inc()
	o.reg.CounterL("sched.jobs.by_partition",
		telemetry.Labels{"partition": strconv.Itoa(res.Partition)}).Inc()
	o.finish(JobInfo{
		ID: j.id, Kind: j.spec.Kind.String(), M: j.spec.M, N: j.spec.N,
		Status: "done", Partition: res.Partition,
		Retries: res.Retries, QueueWait: res.QueueWait.Seconds(), Service: res.Service.Seconds(),
	})
	o.log.Info("job completed", append(jobAttrs(j),
		"partition", res.Partition, "retries", res.Retries,
		"queue_wait", res.QueueWait, "service", res.Service, "outcome", "done")...)
}

func (o *observer) failed(j *Job, err error) {
	o.finish(JobInfo{
		ID: j.id, Kind: j.spec.Kind.String(), M: j.spec.M, N: j.spec.N,
		Status: "failed", Partition: -1,
		Retries: j.retries, Error: err.Error(),
	})
	o.log.Warn("job failed", append(jobAttrs(j),
		"partition", -1, "retries", j.retries, "err", err, "outcome", "failed")...)
}

func (o *observer) preempted(j *Job, partition int) {
	o.mu.Lock()
	delete(o.running, j.id)
	o.mu.Unlock()
	o.log.Info("job preempted", append(jobAttrs(j),
		"partition", partition, "preemptions", j.preempts)...)
}

func (o *observer) retried(j *Job, err error) {
	o.mu.Lock()
	delete(o.running, j.id)
	o.mu.Unlock()
	o.log.Warn("job retrying", append(jobAttrs(j), "retries", j.retries, "err", err)...)
}
