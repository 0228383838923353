package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// workloadDef is one named set of inputs. Why records what the workload
// isolates; BENCHMARK.json repeats it.
type workloadDef struct {
	Name string
	Why  string
	run  func(*runCtx)
}

var workloads = []workloadDef{
	{"factor_tall", "paper regime 2^19x64 on 2 ranks: the leaf Dgeqrf is >=95% of the time, one message, no sched/stream", runFactorTall},
	{"factor_tree", "256 ranks x 128 rows: world spin-up, 255 messages and an 8-deep StackQR chain; leaf kernels predict no move", runFactorTree},
	{"factor_q", "Q+R at 2^18x64 on 2 ranks: reflectors kept, backward pass, dense seeds on the wire; catches R-only wins paid by Q", runFactorQ},
	{"serve_closed", "2 closed-loop clients on a data-mode server: per-job materialization, dispatch and reporting; capacity, no queueing", runServeClosed},
	{"serve_open", "Poisson arrivals at half capacity, latency from due time: the only workload where admission and queue wait count", runServeOpen},
	{"stream_ingest", "streamed rounds of 4 blocks x 4096 rows: the lapack kernels at the Folder's 128-row panel, a third of the leaf rate", runStreamIngest},
	{"sim_grid", "cost-only Grid'5000 simulation on the event engine: mpi/simnet/core schedule do everything, kernels nothing", runSimGrid},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Smoke selects tiny shapes: the test suite's sizes, not a
	// measurement.
	Smoke bool
	// TraceDir is where a traced run writes <workload>.trace.json.
	TraceDir string
}

// runRecord is the outcome of one run: what the result line carries plus
// the detail the JSON document keeps.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Problems lists every failed check; Flags marks runs whose numbers
	// need care (a late load generator); Notes show how parts add up.
	Problems  []string  `json:"problems,omitempty"`
	Flags     []string  `json:"flags,omitempty"`
	Notes     []string  `json:"notes,omitempty"`
	SelfTime  []selfRow `json:"self_time,omitempty"`
	TraceFile string    `json:"trace_file,omitempty"`
	WallS     float64   `json:"wall_s"`
}

// runCtx is the state a workload fills while it runs.
type runCtx struct {
	cfg runConfig
	rec *runRecord
	mu  sync.Mutex
}

// repeatSetup runs a workload's set-up at least three times, and more
// while it is cheap (until 1.5 s are spent, at most 15 times), and
// reports the median as setup_s: a 50 ms set-up timed once says little on
// a shared host. A traced or smoke run sets up once. The last
// repetition's state is the one the timed window uses; teardown, which
// is not timed, releases the state of the repetition before.
func (rc *runCtx) repeatSetup(teardown, setup func()) {
	var samples []float64
	var spent float64
	for {
		teardown()
		t0 := time.Now()
		setup()
		d := time.Since(t0).Seconds()
		samples = append(samples, d)
		spent += d
		if rc.cfg.Trace || rc.cfg.Smoke || len(samples) >= 15 || (len(samples) >= 3 && spent >= 1.5) {
			break
		}
	}
	if !rc.cfg.Trace {
		rc.setTiming("setup_s", samples, 0.5)
	}
}

func (rc *runCtx) window() time.Duration {
	return time.Duration(rc.cfg.Seconds * float64(time.Second))
}

// set records a plain value under a declared metric name.
func (rc *runCtx) set(name string, v float64) {
	rc.put(name, metric{Value: v})
}

// setTiming records the q-quantile of timing samples with its summary.
func (rc *runCtx) setTiming(name string, samples []float64, q float64) {
	rc.put(name, summarize(samples, q))
}

func (rc *runCtx) put(name string, m metric) {
	d, ok := findMetric(name)
	if !ok {
		panic("benchmarks: undeclared metric " + name)
	}
	m.Unit = d.Unit
	rc.mu.Lock()
	rc.rec.Metrics[name] = m
	rc.mu.Unlock()
}

func (rc *runCtx) prober(tr *tracer) prober { return prober{tr: tr, smoke: rc.cfg.Smoke} }

// attempt counts ops attempted; fail counts ones that failed, were
// refused or failed verification, with the reason.
func (rc *runCtx) attempt(n int) {
	rc.mu.Lock()
	rc.rec.Attempted += n
	rc.mu.Unlock()
}

func (rc *runCtx) fail(format string, args ...any) {
	rc.mu.Lock()
	rc.rec.Failed++
	rc.problemLocked(format, args...)
	rc.mu.Unlock()
}

// problemLocked keeps the first twenty reasons; the counts keep them all.
func (rc *runCtx) problemLocked(format string, args ...any) {
	if len(rc.rec.Problems) < 20 {
		rc.rec.Problems = append(rc.rec.Problems, fmt.Sprintf(format, args...))
	}
}

// check is for facts that are not ops (an exact count off its closed
// form): the run is incorrect but no op is counted failed.
func (rc *runCtx) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	rc.mu.Lock()
	rc.rec.Correct = false
	rc.problemLocked(format, args...)
	rc.mu.Unlock()
}

func (rc *runCtx) flag(format string, args ...any) {
	rc.mu.Lock()
	rc.rec.Flags = append(rc.rec.Flags, fmt.Sprintf(format, args...))
	rc.mu.Unlock()
}

func (rc *runCtx) note(format string, args ...any) {
	rc.mu.Lock()
	rc.rec.Notes = append(rc.rec.Notes, fmt.Sprintf(format, args...))
	rc.mu.Unlock()
}

// windowStats is what one timed window of a workload yields.
type windowStats struct {
	LatMs []float64 // caller-visible time of each completed op
	// Rates are the completed ops per second of each of about ten
	// batches the window is cut into. ops_per_s is their median, so a
	// burst of interference shorter than half the window does not move
	// it; the mean over the whole window would carry every burst.
	Rates      []float64
	FlopsPerOp float64 // useful flops of one op
}

// batches is how many pieces a window is cut into for ops_per_s.
const batches = 10

// sequentialWindow is the timed window of a closed loop with one caller:
// it calls op until d has passed. op prepares outside its own timed
// region, and returns the op's seconds and whether it completed and
// verified; a failed op has already been reported with rc.fail.
func (rc *runCtx) sequentialWindow(d time.Duration, flopsPerOp float64, op func() (sec float64, ok bool)) windowStats {
	ws := windowStats{FlopsPerOp: flopsPerOp}
	var opS []float64
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		sec, ok := op()
		rc.attempt(1)
		if ok {
			ws.LatMs = append(ws.LatMs, sec*1e3)
			opS = append(opS, sec)
		}
	}
	ws.Rates = sequentialRates(opS)
	return ws
}

// sequentialRates cuts a single caller's consecutive op times (seconds)
// into up to `batches` runs of equal op count and returns each run's
// ops per second.
func sequentialRates(opS []float64) []float64 {
	groups := min(batches, max(1, len(opS)/2))
	var rates []float64
	for g := 0; g < groups; g++ {
		lo, hi := g*len(opS)/groups, (g+1)*len(opS)/groups
		var sum float64
		for _, s := range opS[lo:hi] {
			sum += s
		}
		if sum > 0 {
			rates = append(rates, float64(hi-lo)/sum)
		}
	}
	return rates
}

// slicedRates cuts [0, window) seconds into `batches` equal slices and
// returns the completions per second of each, from the completion times
// (seconds since the window's start) of ops of concurrent callers.
func slicedRates(doneAt []float64, window float64) []float64 {
	counts := make([]float64, batches)
	width := window / batches
	for _, t := range doneAt {
		if i := int(t / width); i >= 0 && i < batches {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= width
	}
	return counts
}

// traceSlices is how many alternating pieces a traced run cuts its
// timed window into (fewer when ops overrun their slice).
const traceSlices = 10

// phases runs a workload's timed windows. An untraced run measures one
// window of the configured length and reports the end-to-end metrics. A
// traced run cuts the time into alternating untraced and traced slices,
// so that host drift falls on both alike; the ratio of their median op
// times is the tracer's overhead, and the tracer goes back to the caller
// for the per-layer metrics.
func (rc *runCtx) phases(window func(tr *tracer, d time.Duration) windowStats) *tracer {
	if !rc.cfg.Trace {
		ws := window(nil, rc.window())
		rc.setTiming("latency_ms_p50", ws.LatMs, 0.5)
		rc.setTiming("ops_per_s", ws.Rates, 0.5)
		rc.set("gflops", median(ws.Rates)*ws.FlopsPerOp/1e9)
		rc.set("peak_rss_mb", peakRSSMB())
		return nil
	}
	tr := newTracer()
	var plain, traced []float64
	end := time.Now().Add(rc.window())
	for i := 0; time.Now().Before(end); i++ {
		d := min(rc.window()/traceSlices, time.Until(end))
		if i%2 == 0 {
			plain = append(plain, window(nil, d).LatMs...)
		} else {
			traced = append(traced, window(tr, d).LatMs...)
		}
	}
	rc.set("host.peak_rss_mb", peakRSSMB()) // before the replayed pieces allocate
	if p := median(plain); p > 0 {
		rc.set("trace.overhead_ratio", median(traced)/p)
	}
	return tr
}

// finishTrace writes the trace file and the self-time table.
func (rc *runCtx) finishTrace(tr *tracer) {
	if tr == nil {
		return
	}
	rc.rec.SelfTime = tr.selfTable()
	if rc.cfg.TraceDir == "" {
		return
	}
	path := rc.cfg.TraceDir + "/" + rc.cfg.Workload + ".trace.json"
	if err := tr.writeChrome(path); err != nil {
		rc.check(false, "write trace: %v", err)
		return
	}
	rc.rec.TraceFile = path
}

// runWorkload executes one run in this process.
func runWorkload(cfg runConfig) *runRecord {
	w, ok := findWorkload(cfg.Workload)
	if !ok {
		panic("benchmarks: unknown workload " + cfg.Workload)
	}
	rec := &runRecord{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Correct: true, Metrics: make(map[string]metric),
	}
	rc := &runCtx{cfg: cfg, rec: rec}
	t0 := time.Now()
	w.run(rc)
	rec.WallS = time.Since(t0).Seconds()
	if rec.Failed > 0 || rec.Attempted == 0 {
		rec.Correct = false
	}
	if !cfg.Trace {
		ratio := 0.0
		if rec.Attempted > 0 {
			ratio = float64(rec.Failed) / float64(rec.Attempted)
		}
		rec.Metrics["fail_ratio"] = metric{Value: ratio, Unit: "ratio"}
	}
	return rec
}

// metricNames returns the record's metric names in declaration order.
func (r *runRecord) metricNames() []string {
	order := make(map[string]int)
	for _, list := range [][]metricDef{endToEnd, alsoReported, perLayer} {
		for _, d := range list {
			order[d.Name] = len(order)
		}
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return order[names[a]] < order[names[b]] })
	return names
}
