package main

import (
	"math"
	"runtime"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/flops"
	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/perfmodel"
	"gridqr/internal/scalapack"
)

// The three factor_* workloads: one caller in a closed loop calling
// core.Factorize on goroutine ranks, data mode, grid-tuned tree. One op
// is NewWorld + Run(Factorize) on a fresh copy of the input; the copy is
// made outside the timed region.

// factorShape fixes a factor workload's platform and matrix.
type factorShape struct {
	clusters, nodes int // grid.SmallTestGrid(clusters, nodes, 1)
	rowsPerRank, n  int
	wantQ           bool
}

func (s factorShape) smoke() factorShape {
	s.nodes = min(s.nodes, 4)
	s.rowsPerRank = min(s.rowsPerRank, 256)
	s.n = 16
	return s
}

var (
	shapeTall = factorShape{clusters: 1, nodes: 2, rowsPerRank: 1 << 18, n: 64}
	shapeTree = factorShape{clusters: 4, nodes: 64, rowsPerRank: 128, n: 64}
	shapeQ    = factorShape{clusters: 1, nodes: 2, rowsPerRank: 1 << 17, n: 64, wantQ: true}
)

// factorState is a set-up factor workload.
type factorState struct {
	shape   factorShape
	g       *grid.Grid
	m, n, p int
	offsets []int
	a       *matrix.Dense   // the global input, never modified
	locals  []*matrix.Dense // per-rank work blocks, refilled before each op
	cfg     core.Config
}

// opOut is what one op leaves for verification.
type opOut struct {
	r        *matrix.Dense
	q        []*matrix.Dense // per-rank row blocks of Q, nil without WantQ
	counters mpi.CounterSnapshot
}

func newFactorState(shape factorShape, seed int64) *factorState {
	g := grid.SmallTestGrid(shape.clusters, shape.nodes, 1)
	p := g.Procs()
	f := &factorState{
		shape: shape, g: g, p: p, m: p * shape.rowsPerRank, n: shape.n,
		cfg: core.Config{Tree: core.TreeGrid, WantQ: shape.wantQ},
	}
	f.offsets = scalapack.BlockOffsets(f.m, p)
	f.a = matrix.RandomRows(f.m, f.n, 0, seed)
	f.locals = make([]*matrix.Dense, p)
	for r := range f.locals {
		f.locals[r] = matrix.New(f.offsets[r+1]-f.offsets[r], f.n)
	}
	return f
}

// block is rank r's rows of the pristine input.
func (f *factorState) block(r int) *matrix.Dense {
	return f.a.View(f.offsets[r], 0, f.offsets[r+1]-f.offsets[r], f.n)
}

// refill restores every rank's work block; Factorize overwrites them.
func (f *factorState) refill() {
	for r, l := range f.locals {
		matrix.Copy(l, f.block(r))
	}
}

// op runs one factorization and returns its caller-visible duration.
func (f *factorState) op(tr *tracer, id int, cfg core.Config) (time.Duration, opOut) {
	out := opOut{}
	if cfg.WantQ {
		out.q = make([]*matrix.Dense, f.p)
	}
	t0 := time.Now()
	root := tr.begin("factor.op", noSpan, id, 0)
	s := tr.begin("mpi.NewWorld", root, id, 0)
	w := mpi.NewWorld(f.g)
	tr.end(s)
	s = tr.begin("mpi.World.Run", root, id, 0)
	w.Run(func(ctx *mpi.Ctx) {
		r := ctx.Rank()
		fs := tr.begin("core.Factorize", s, id, 1+r)
		res := core.Factorize(mpi.WorldComm(ctx),
			core.Input{M: f.m, N: f.n, Offsets: f.offsets, Local: f.locals[r]}, cfg)
		tr.end(fs)
		if r == 0 {
			out.r = res.R
		}
		if cfg.WantQ {
			out.q[r] = res.QLocal
		}
	})
	tr.end(s)
	tr.end(root)
	d := time.Since(t0)
	out.counters = w.Counters()
	return d, out
}

// exactTraffic is the closed form of one op's traffic: a packed triangle
// per merge on the way up and, with Q, a dense n×n seed per merge on the
// way back.
func (f *factorState) exactTraffic(wantQ bool) (msgs int64, bytes float64, inter int64) {
	ex := perfmodel.TSQRExactTotals(f.n, f.p)
	msgs, bytes = int64(ex.Msgs), ex.Volume
	inter = int64(perfmodel.TSQRExactCrossSite(f.shape.clusters))
	if wantQ {
		bytes += ex.Msgs * 8 * float64(f.n*f.n)
		msgs, inter = 2*msgs, 2*inter
	}
	return msgs, bytes, inter
}

// factorRun is the part the three workloads share: repeated set-up, the
// timed windows, and verification of every op. It returns the state and
// the traced run's tracer (nil on an untraced run, or when no op
// completed).
func factorRun(rc *runCtx, shape factorShape) (*factorState, *tracer) {
	if rc.cfg.Smoke {
		shape = shape.smoke()
	}
	var f *factorState
	rc.repeatSetup(func() {
		f = nil
		runtime.GC() // the previous repetition's input must not count towards peak_rss_mb
	}, func() {
		f = newFactorState(shape, rc.cfg.Seed)
		f.refill()
		f.op(nil, -1, f.cfg) // warm-up: pools, page faults, scheduler
	})

	wantMsgs, wantBytes, wantInter := f.exactTraffic(shape.wantQ)
	var first *opOut
	var firstHash uint64
	opID := 0
	tr := rc.phases(func(tr *tracer, d time.Duration) windowStats {
		return rc.sequentialWindow(d, perfmodel.UsefulFlops(f.m, f.n, shape.wantQ), func() (float64, bool) {
			f.refill()
			// Collect the previous op's output here, outside the timed
			// region: otherwise an op is fast or slow by whether its
			// allocations reuse freed memory or fault in fresh pages,
			// which is the collector's timing and not the op's cost.
			runtime.GC()
			dur, out := f.op(tr, opID, f.cfg)
			opID++
			tot := out.counters.Total()
			h := bitsHash(append([]*matrix.Dense{out.r}, out.q...)...)
			switch {
			case tot.Msgs != wantMsgs || tot.Bytes != wantBytes || out.counters.Inter().Msgs != wantInter:
				rc.fail("op %d traffic %d msgs / %g bytes / %d inter-site, closed form %d / %g / %d",
					opID-1, tot.Msgs, tot.Bytes, out.counters.Inter().Msgs, wantMsgs, wantBytes, wantInter)
				return 0, false
			case first == nil:
				first, firstHash = &out, h
			case h != firstHash:
				rc.fail("op %d output differs bitwise from op 0 on the same input", opID-1)
				return 0, false
			}
			return dur.Seconds(), true
		})
	})

	// Every later op was held bitwise equal to the first, so checking the
	// first against the sequential reference checks them all.
	if first == nil {
		rc.fail("no op completed")
		return f, nil
	}
	ref := core.FactorizeLocal(f.a, 0)
	if ok, rel := rMatchesReference(first.r, ref); !ok {
		rc.fail("R off the sequential reference: relative error %.3g > %g", rel, rTol)
	}
	if shape.wantQ {
		q := first.q[0]
		for _, block := range first.q[1:] {
			q = matrix.Stack(q, block)
		}
		if e := matrix.ResidualQR(f.a, q, first.r); !(e <= qTol) {
			rc.fail("‖A−QR‖/‖A‖ = %.3g > %g", e, qTol)
		}
		if e := matrix.OrthoError(q); !(e <= qTol) {
			rc.fail("‖I−QᵀQ‖ = %.3g > %g", e, qTol)
		}
	}
	if tr != nil {
		// Measured by World.Counters(); every op was held to the closed form.
		rc.set("core.msgs_per_op", float64(first.counters.Total().Msgs))
		rc.set("core.bytes_per_op", first.counters.Total().Bytes)
		rc.set("core.inter_site_msgs_per_op", float64(first.counters.Inter().Msgs))
	}
	return f, tr
}

// treeDepth is the number of merges on the longest path of the
// grid-tuned tree: binomial within each site, then across sites.
func (f *factorState) treeDepth() float64 {
	perSite := f.p / f.shape.clusters
	return math.Ceil(math.Log2(float64(perSite))) + math.Ceil(math.Log2(float64(f.shape.clusters)))
}

// opStep is one untraced op, prepared as in the timed window.
func (f *factorState) opStep() step {
	return step{"factor.op.replay",
		func() { f.refill(); runtime.GC() },
		func() { f.op(nil, -1, f.cfg) }}
}

// attribute splits the op time into the slowest rank's bare leaf, the
// StackQR chain and the schedule walk, and reports what is left over.
// opS and leafS are seconds of ops and of leavesStep timed in turn.
func (f *factorState) attribute(rc *runCtx, pr prober, opS, leafS float64) {
	stackUs, _ := pr.stackQR(f.n)
	walkMs := pr.walk(f.g, f.m, f.n, core.Config{Tree: core.TreeGrid})
	rc.set("lapack.stackqr_us.n64", stackUs)
	rc.set("core.leaf_share", leafS/opS)
	rc.set("core.walk_ms", walkMs)
	rest := opS*1e3 - leafS*1e3 - f.treeDepth()*stackUs/1e3 - walkMs
	rc.set("core.unattributed_ms", rest)
	rc.note("op %.4g ms = leaf %.4g + %g x StackQR %.4g + walk %.4g + unattributed %.4g ms (%.1f%% of the op)",
		opS*1e3, leafS*1e3, f.treeDepth(), stackUs/1e3, walkMs, rest, 100*rest/(opS*1e3))
	rc.set("mpi.pingpong_us.triu64", pr.pingPong())
}

func (f *factorState) rankBlocks() []*matrix.Dense {
	blocks := make([]*matrix.Dense, f.p)
	for r := range blocks {
		blocks[r] = f.block(r)
	}
	return blocks
}

func runFactorTall(rc *runCtx) {
	f, tr := factorRun(rc, shapeTall)
	if tr == nil {
		return
	}
	pr := rc.prober(tr)

	// The bandwidth roof, the level-2 kernels and the leaf kernel, timed
	// in turn. One rank's panel is 262144×64; the rank's work block is
	// the scratch copy, and a buffer of the whole input the copy's target.
	whole := matrix.New(f.m, f.n)
	matrix.Copy(whole, f.a) // first touch
	leaf, scratch := f.block(0), f.locals[0]
	matrix.Copy(scratch, leaf)
	gemvStep, gerStep := level2Steps(scratch)
	t := pr.rounds(3, 1.5, copyStep(f.a, whole), gemvStep, gerStep, dgeqrfStep("lapack.Dgeqrf.leaf", leaf, scratch))
	roof := copyGBps(f.a, median(t[0]))
	gemvT := panelBytes(leaf) / median(t[1]) / 1e9
	ger := 2 * panelBytes(leaf) / median(t[2]) / 1e9
	leafGflops := flops.GEQRF(leaf.Rows, leaf.Cols) / median(t[3]) / 1e9
	dgemm := pr.dgemm()
	opb := dgeqrfOpsPerByte(leaf.Rows, leaf.Cols)
	_, llc := cacheSizes()
	rc.set("matrix.copy_gbps", roof)
	rc.set("matrix.copy_bytes", panelBytes(f.a))
	rc.set("host.llc_bytes", float64(llc))
	rc.set("blas.dgemm_gflops", dgemm)
	rc.set("blas.dgemv_t_gbps.leaf", gemvT)
	rc.set("blas.dger_gbps.leaf", ger)
	rc.set("blas.dgemv_t_roofline_frac.leaf", gemvT/roof)
	rc.set("blas.dger_roofline_frac.leaf", ger/roof)
	rc.set("lapack.dgeqrf_gflops.leaf", leafGflops)
	rc.set("lapack.dgeqrf_ops_per_byte", opb)
	rc.set("lapack.dgeqrf_roofline_frac.leaf", leafGflops/math.Min(dgemm, roof*opb))

	// The op against its parts, and ROADMAP item 2's ratios on the whole
	// input — what the runtime adds to the bare kernel on one rank, what
	// the second rank buys — again timed in turn.
	tau := make([]float64, f.n)
	one := grid.SmallTestGrid(1, 1, 1)
	offsets := []int{0, f.m}
	restore := func() { matrix.Copy(whole, f.a) }
	t = pr.rounds(2, 4, f.opStep(), leavesStep(f.rankBlocks(), f.locals),
		step{"core.Factorize.p1", restore, func() {
			mpi.NewWorld(one).Run(func(ctx *mpi.Ctx) {
				core.Factorize(mpi.WorldComm(ctx),
					core.Input{M: f.m, N: f.n, Offsets: offsets, Local: whole}, core.Config{Tree: core.TreeGrid})
			})
		}},
		step{"lapack.Dgeqrf.whole", restore, func() { lapack.Dgeqrf(whole, tau, 0) }})
	opS, leafS, p1, bare := median(t[0]), median(t[1]), median(t[2]), median(t[3])
	f.attribute(rc, pr, opS, leafS)
	rc.set("core.runtime_overhead_ratio", p1/bare)
	rc.set("core.parallel_efficiency", p1/(float64(f.p)*opS))
	rc.set("mpi.world_spinup_us.p2", pr.spinup(f.g))
	rc.finishTrace(tr)
}

func runFactorTree(rc *runCtx) {
	f, tr := factorRun(rc, shapeTree)
	if tr == nil {
		return
	}
	pr := rc.prober(tr)
	rc.set("lapack.dgeqrf_gflops.panel128", pr.dgeqrf("lapack.Dgeqrf.panel128", f.block(0), 20, 0.1))
	t := pr.rounds(5, 1, f.opStep(), leavesStep(f.rankBlocks(), f.locals))
	f.attribute(rc, pr, median(t[0]), median(t[1]))
	rc.set("mpi.world_spinup_us.p256", pr.spinup(f.g))
	rc.finishTrace(tr)
}

func runFactorQ(rc *runCtx) {
	f, tr := factorRun(rc, shapeQ)
	if tr == nil {
		return
	}
	leaf := matrix.RandomRows(shapeTall.rowsPerRank, f.n, 0, rc.cfg.Seed)
	if rc.cfg.Smoke {
		leaf = f.block(0).Clone()
	}
	pr := rc.prober(tr)
	rc.set("lapack.dorgqr_gflops.leaf", pr.dorgqr(leaf))
	_, applyUs := pr.stackQR(f.n)
	rc.set("lapack.applystackq_us.n64", applyUs)
	rc.set("mpi.world_spinup_us.p2", pr.spinup(f.g))

	// Property 1 of the paper: Q+R should cost about twice R alone. The
	// two are timed in turn on the same input.
	rOnly := core.Config{Tree: core.TreeGrid}
	qr := f.opStep()
	t := pr.rounds(3, 2, qr, step{"factor.op.r_only", qr.prep, func() { f.op(nil, -1, rOnly) }})
	rc.set("core.q_over_r_ratio", median(t[0])/median(t[1]))
	rc.finishTrace(tr)
}
