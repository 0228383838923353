package main

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/perfmodel"
	"gridqr/internal/scalapack"
	"gridqr/internal/sched"
)

// The two serve_* workloads: sched.Start in data mode on a 2-site grid,
// one partition of 2 ranks per site, batching off, TSQR jobs with a
// distinct seed each. serve_closed drives it with clients that wait for
// their reply; serve_open with arrivals on a schedule.

type serveShape struct {
	m, n     int
	clients  int     // closed loop
	rate     float64 // open loop, jobs/s
	queueCap int
	warm     int // warm-up jobs per set-up
}

var shapeServe = serveShape{m: 16384, n: 64, clients: 2, rate: 35, queueCap: 64, warm: 16}

func (s serveShape) smoke() serveShape {
	s.m, s.n, s.rate, s.warm = 1024, 16, 200, 2
	return s
}

// verifyEvery is the sampling stride of the served jobs whose R is kept
// and checked against the sequential reference after the timed window.
const verifyEvery = 16

// jobSample is one served job as the caller saw it.
type jobSample struct {
	id   int
	seed int64
	// latency = lag + submit-to-result; report is what remains of it
	// after lag, queue wait and service.
	latMs, lagMs, qwMs, svcMs, reportMs float64
	submitUs                            float64
	doneAt                              time.Time
	msgs                                int64
	retries                             int
	r                                   *matrix.Dense // kept on the verification sample only
	failed, shed                        bool
}

type serveRun struct {
	rc    *runCtx
	shape serveShape
	srv   *sched.Server
	next  atomic.Int64

	mu      sync.Mutex
	samples []jobSample
}

func (sr *serveRun) start(tr *tracer) float64 {
	g := grid.SmallTestGrid(2, 2, 1)
	return tr.timed("sched.Start", noSpan, -1, 0, func() {
		sr.srv = sched.Start(sched.Config{Grid: g, Plan: sched.PerSite(g), MaxBatch: 1, QueueCap: sr.shape.queueCap})
	})
}

func (sr *serveRun) spec(id int) sched.JobSpec {
	return sched.JobSpec{Kind: sched.KindTSQR, M: sr.shape.m, N: sr.shape.n, Seed: sr.rc.cfg.Seed<<24 + int64(id)}
}

// serve submits one job and waits for it. due is when the job was
// scheduled to be sent (the submit time itself in a closed loop);
// latency runs from due.
func (sr *serveRun) serve(tr *tracer, lane int, due time.Time) jobSample {
	id := int(sr.next.Add(1))
	spec := sr.spec(id)
	js := jobSample{id: id, seed: spec.Seed}
	t0 := time.Now()
	js.lagMs = t0.Sub(due).Seconds() * 1e3
	subSpan := tr.begin("sched.Submit", noSpan, id, lane)
	j, err := sr.srv.Submit(spec)
	tr.end(subSpan)
	tSub := time.Now()
	js.submitUs = tSub.Sub(t0).Seconds() * 1e6
	if err != nil {
		js.failed, js.shed = true, errors.Is(err, sched.ErrQueueFull)
		sr.rc.fail("job %d refused: %v", id, err)
		return js
	}
	resSpan := tr.begin("sched.Job.Result", noSpan, id, lane)
	res := j.Result()
	tr.end(resSpan)
	done := time.Now()
	js.doneAt = done
	js.latMs = done.Sub(due).Seconds() * 1e3
	js.qwMs = res.QueueWait.Seconds() * 1e3
	js.svcMs = res.Service.Seconds() * 1e3
	js.reportMs = js.latMs - js.lagMs - js.qwMs - js.svcMs
	js.msgs = res.Counters.Total().Msgs
	js.retries = res.Retries
	if tr != nil {
		// The job's root span runs from its due time; what the server
		// reported about the wait is laid under the Result call.
		root := tr.derived("serve.job", noSpan, id, lane, due, done.Sub(due))
		tr.adopt(root, subSpan, resSpan)
		tr.derived("sched.queue_wait", resSpan, id, lane, tSub, res.QueueWait)
		tr.derived("sched.service", resSpan, id, lane, tSub.Add(res.QueueWait), res.Service)
	}
	switch {
	case res.Err != nil:
		js.failed = true
		sr.rc.fail("job %d failed: %v", id, res.Err)
	case res.R == nil || res.R.Rows != spec.N || !matrix.IsUpperTriangular(res.R, 0):
		js.failed = true
		sr.rc.fail("job %d returned no upper-triangular %d×%d R", id, spec.N, spec.N)
	case id%verifyEvery == 0:
		js.r = res.R
	}
	return js
}

func (sr *serveRun) record(js jobSample) {
	sr.rc.attempt(1)
	sr.mu.Lock()
	sr.samples = append(sr.samples, js)
	sr.mu.Unlock()
}

// stats turns the jobs recorded since index from into the result of
// the window that began at start and offered work for d.
func (sr *serveRun) stats(from int, start time.Time, d time.Duration) windowStats {
	ws := windowStats{FlopsPerOp: perfmodel.UsefulFlops(sr.shape.m, sr.shape.n, false)}
	var doneAt []float64
	for _, js := range sr.samples[from:] {
		if js.failed {
			continue
		}
		ws.LatMs = append(ws.LatMs, js.latMs)
		doneAt = append(doneAt, js.doneAt.Sub(start).Seconds())
	}
	ws.Rates = slicedRates(doneAt, d.Seconds())
	return ws
}

// closedWindow runs the closed loop: each client submits its next job
// only after the previous one completed.
func (sr *serveRun) closedWindow(tr *tracer, d time.Duration) windowStats {
	from := len(sr.samples)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < sr.shape.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sr.record(sr.serve(tr, 1+c, time.Now()))
			}
		}(c)
	}
	wg.Wait()
	return sr.stats(from, start, d)
}

// arrivals returns the due offsets of an open loop: a Poisson process of
// the given rate over d, conditioned on its expected count so that every
// run offers the same number of jobs.
func arrivals(rate float64, d time.Duration, seed int64) []time.Duration {
	n := int(rate*d.Seconds() + 0.5)
	rng := rand.New(rand.NewSource(seed))
	cum := make([]float64, n+1)
	var t float64
	for i := range cum {
		t += rng.ExpFloat64()
		cum[i] = t
	}
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(cum[i] / cum[n] * float64(d))
	}
	return due
}

// openWindow runs the open loop: jobs are sent when due whatever the
// server's state, each timed from its due time.
func (sr *serveRun) openWindow(tr *tracer, d time.Duration) windowStats {
	from := len(sr.samples)
	due := arrivals(sr.shape.rate, d, sr.rc.cfg.Seed+int64(from))
	start := time.Now()
	var wg sync.WaitGroup
	for i, off := range due {
		at := start.Add(off)
		time.Sleep(time.Until(at))
		wg.Add(1)
		// One goroutine per job in flight; the queue bound caps them.
		go func(i int) {
			defer wg.Done()
			sr.record(sr.serve(tr, 1+i%16, at))
		}(i)
	}
	wg.Wait()
	ws := sr.stats(from, start, d)
	// An open loop completes what it is offered: slices of it would
	// measure the arrival process's own variance, so the rate is taken
	// over the whole window, up to the last completion.
	ws.Rates = []float64{float64(len(ws.LatMs)) / time.Since(start).Seconds()}
	return ws
}

// verifySample checks the kept R factors against the sequential
// reference of the same seeded matrix, on as many goroutines as CPUs.
func (sr *serveRun) verifySample() {
	var kept []jobSample
	for _, js := range sr.samples {
		if js.r != nil {
			kept = append(kept, js)
		}
	}
	work := make(chan jobSample)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for js := range work {
				ref := core.FactorizeLocal(matrix.RandomRows(sr.shape.m, sr.shape.n, 0, js.seed), 0)
				if ok, rel := rMatchesReference(js.r, ref); !ok {
					sr.rc.fail("job %d R off the sequential reference: relative error %.3g > %g", js.id, rel, rTol)
				}
			}
		}()
	}
	for _, js := range kept {
		work <- js
	}
	close(work)
	wg.Wait()
}

// overhead is what the scheduler adds to the work of a job: the service
// time of served jobs over the time of the same work — RandomRows then
// core.Factorize on an equal 2-rank world — called directly. Served and
// direct batches of `concurrency` jobs at once take turns, so that a slow
// spell of the host falls on both alike.
func (sr *serveRun) overhead(pr prober, concurrency int) float64 {
	g := grid.SmallTestGrid(1, 2, 1)
	offsets := scalapack.BlockOffsets(sr.shape.m, 2)
	direct := func(seed int64) {
		mpi.NewWorld(g).Run(func(ctx *mpi.Ctx) {
			me := ctx.Rank()
			local := matrix.RandomRows(offsets[me+1]-offsets[me], sr.shape.n, offsets[me], seed)
			core.Factorize(mpi.WorldComm(ctx),
				core.Input{M: sr.shape.m, N: sr.shape.n, Offsets: offsets, Local: local},
				core.Config{Tree: core.TreeGrid})
		})
	}
	var mu sync.Mutex
	var served, called []float64
	batch := func(fn func(c int) float64, into *[]float64) {
		var wg sync.WaitGroup
		for c := 0; c < concurrency; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				v := fn(c)
				mu.Lock()
				*into = append(*into, v)
				mu.Unlock()
			}(c)
		}
		wg.Wait()
	}
	rounds := 20
	if pr.smoke {
		rounds = 2
	}
	for i := 0; i < rounds; i++ {
		batch(func(c int) float64 { return sr.serve(nil, 1+c, time.Now()).svcMs / 1e3 }, &served)
		batch(func(c int) float64 {
			return pr.tr.timed("replay.RandomRows+Factorize", noSpan, -1, replayLane+c, func() { direct(int64(i*concurrency + c)) })
		}, &called)
	}
	return median(served) / median(called)
}

func column(samples []jobSample, f func(jobSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, js := range samples {
		out[i] = f(js)
	}
	return out
}

func runServe(rc *runCtx, open bool) {
	shape := shapeServe
	if rc.cfg.Smoke {
		shape = shape.smoke()
	}
	sr := &serveRun{rc: rc, shape: shape}
	// setup_s is the time to be ready to serve: Start plus warm-up jobs.
	// All but the last server are closed again.
	rc.repeatSetup(func() {
		if sr.srv != nil {
			sr.srv.Close()
		}
	}, func() {
		sr.start(nil)
		for i := 0; i < shape.warm; i++ {
			sr.serve(nil, 0, time.Now())
		}
	})

	window := sr.closedWindow
	if open {
		window = sr.openWindow
	}
	tr := rc.phases(window)
	if tr != nil {
		concurrency := 1 // an open loop at half capacity mostly has one job in service
		if !open {
			concurrency = shape.clients
		}
		rc.set("sched.overhead_ratio", sr.overhead(rc.prober(tr), concurrency))
	}
	closeMs := tr.timed("sched.Close", noSpan, -1, 0, sr.srv.Close) * 1e3
	sr.verifySample()

	ok := sr.samples[:0:0]
	for _, js := range sr.samples {
		if !js.failed {
			ok = append(ok, js)
		}
	}
	lat := column(ok, func(j jobSample) float64 { return j.latMs })
	lag := column(ok, func(j jobSample) float64 { return j.lagMs })
	if len(lat) == 0 {
		return
	}
	lagP95 := quantile(sortedCopy(lag), 0.95)
	if open && lagP95 > median(lat)/5 {
		rc.flag("load generator late: gen_lag_ms_p95 %.3g exceeds a fifth of latency_ms_p50 %.3g", lagP95, median(lat))
	}
	wantMsgs := int64(perfmodel.TSQRExactTotals(shape.n, 2).Msgs)
	var shed, retries int
	for _, js := range sr.samples {
		if js.shed {
			shed++
		}
		retries += js.retries
		rc.check(js.failed || js.msgs == wantMsgs, "job %d moved %d messages, closed form %d", js.id, js.msgs, wantMsgs)
	}
	if tr == nil {
		return
	}

	qw := column(ok, func(j jobSample) float64 { return j.qwMs })
	svc := column(ok, func(j jobSample) float64 { return j.svcMs })
	report := column(ok, func(j jobSample) float64 { return j.reportMs })
	rc.note("latency = generator lag + queue wait + service + report; means %.4g = %.4g + %.4g + %.4g + %.4g ms",
		mean(lat), mean(lag), mean(qw), mean(svc), mean(report))
	rc.setTiming("sched.queue_wait_ms_p50", qw, 0.5)
	rc.setTiming("sched.queue_wait_ms_p95", qw, 0.95)
	rc.setTiming("sched.service_ms_p50", svc, 0.5)
	rc.setTiming("sched.report_ms_p50", report, 0.5)
	rc.setTiming("sched.submit_us_p50", column(ok, func(j jobSample) float64 { return j.submitUs }), 0.5)
	rc.setTiming("sched.latency_ms_p95", lat, 0.95)
	rc.setTiming("sched.latency_ms_p99", lat, 0.99)
	if open {
		rc.setTiming("sched.gen_lag_ms_p95", lag, 0.95)
	}
	rc.set("sched.close_ms", closeMs)
	rc.set("sched.shed", float64(shed))
	rc.set("sched.retries", float64(retries))
	rc.set("sched.msgs_per_job", float64(ok[0].msgs))

	// A second server, started under the tracer, gives sched.start_ms
	// without putting a span inside the untraced set-up.
	probe := &serveRun{rc: rc, shape: shape}
	rc.set("sched.start_ms", probe.start(tr)*1e3)
	probe.srv.Close()

	rows := shape.m / 2 // one rank's share of a job
	pr := rc.prober(tr)
	d := pr.reps("matrix.RandomRows", 10, 0.2, nil, func() { matrix.RandomRows(rows, shape.n, 0, rc.cfg.Seed) })
	rc.set("matrix.randomrows_ns_per_elem", median(d)*1e9/float64(rows*shape.n))
	rc.set("matrix.materialize_share", median(d)*1e3/median(svc))
	rc.finishTrace(tr)
}

func runServeClosed(rc *runCtx) { runServe(rc, false) }
func runServeOpen(rc *runCtx)   { runServe(rc, true) }
