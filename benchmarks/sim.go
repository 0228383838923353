package main

import (
	"runtime"
	"time"

	"gridqr/internal/bench"
	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/mpi"
	"gridqr/internal/perfmodel"
	"gridqr/internal/scalapack"
	"gridqr/internal/telemetry"
)

// sim_grid: one caller in a closed loop running the cost-only
// virtual-time simulation on the event engine. One op is PDGEQR2 on the
// full Grid'5000 platform, QCG-TSQR R and Q+R at the same point, and one
// multi-level weak-scaling point. Virtual seconds and message counts are
// exact: they are checked, not timed.

type simShape struct {
	g          *grid.Grid
	m, n       int
	scaleRanks int
}

func simShapeFor(smoke bool) simShape {
	if smoke {
		return simShape{g: grid.SmallTestGrid(2, 4, 2), m: 1 << 14, n: 8, scaleRanks: 64}
	}
	return simShape{g: grid.Grid5000(), m: 1 << 22, n: 64, scaleRanks: 4096}
}

// simOut is what one op produced: the exact quantities that every op
// must reproduce, and the wall seconds of its parts.
type simOut struct {
	virtual  [4]float64 // PDGEQR2, TSQR R, TSQR Q+R, weak-scaling point
	msgs     [4]int64
	pdgeqr2S float64
	scaleS   float64
	scaleM   int // rows of the weak-scaling point
	engine   mpi.EngineStats
}

// pdgeqr2 simulates the ScaLAPACK panel routine on its own world, so
// that the engine's statistics can be read afterwards.
func (s simShape) pdgeqr2(opts ...mpi.Option) (w *mpi.World, wallS float64) {
	offsets := scalapack.BlockOffsets(s.m, s.g.Procs())
	w = mpi.NewWorld(s.g, append([]mpi.Option{mpi.CostOnly()}, opts...)...)
	t0 := time.Now()
	w.Run(func(ctx *mpi.Ctx) {
		scalapack.PDGEQR2(mpi.WorldComm(ctx), scalapack.Input{M: s.m, N: s.n, Offsets: offsets})
	})
	return w, time.Since(t0).Seconds()
}

func (s simShape) op(tr *tracer, id int) (time.Duration, simOut) {
	var out simOut
	t0 := time.Now()
	root := tr.begin("sim.op", noSpan, id, 0)

	sp := tr.begin("scalapack.PDGEQR2.sim", root, id, 0)
	w, wall := s.pdgeqr2()
	tr.end(sp)
	out.pdgeqr2S = wall
	out.virtual[0], out.msgs[0] = w.MaxClock(), w.Counters().Total().Msgs
	out.engine = w.EngineStats()

	for i, wantQ := range []bool{false, true} {
		sp = tr.begin("bench.Execute.tsqr", root, id, 0)
		m := bench.Execute(bench.Run{
			Grid: s.g, Sites: len(s.g.Clusters), M: s.m, N: s.n,
			Algo: bench.TSQR, Tree: core.TreeGrid, WantQ: wantQ,
		})
		tr.end(sp)
		out.virtual[1+i], out.msgs[1+i] = m.Seconds, m.Counters.Total().Msgs
	}

	sp = tr.begin("bench.ScalePoint", root, id, 0)
	t1 := time.Now()
	sr, _ := bench.ScalePoint(s.scaleRanks, bench.TSQR, core.TreeMultiLevel)
	out.scaleS = time.Since(t1).Seconds()
	tr.end(sp)
	out.virtual[3], out.msgs[3], out.scaleM = sr.Seconds, sr.Msgs, sr.M

	tr.end(root)
	return time.Since(t0), out
}

// exactMsgs are the closed forms of the four parts' message counts.
func (s simShape) exactMsgs() [4]int64 {
	p := s.g.Procs()
	tsqr := int64(perfmodel.TSQRExactTotals(s.n, p).Msgs)
	return [4]int64{
		int64(perfmodel.PDGEQR2ExactTotals(s.n, p).Msgs),
		tsqr,
		2 * tsqr, // the Q pass sends one seed back along every merge
		int64(perfmodel.TSQRExactTotals(bench.ScaleN, s.scaleRanks).Msgs),
	}
}

// usefulFlops is the useful work of the simulated factorizations of one
// op, for the simulated-flops-per-wall-second figure.
func (s simShape) usefulFlops(scaleM int) float64 {
	return 2*perfmodel.UsefulFlops(s.m, s.n, false) + perfmodel.UsefulFlops(s.m, s.n, true) +
		perfmodel.UsefulFlops(scaleM, bench.ScaleN, false)
}

func runSimGrid(rc *runCtx) {
	var s simShape
	var warm simOut
	rc.repeatSetup(func() {}, func() {
		s = simShapeFor(rc.cfg.Smoke)
		_, warm = s.op(nil, -1) // warm-up: coroutine stacks, shared schedules
	})

	want := s.exactMsgs()
	var first *simOut
	var outs []simOut
	opID := 0
	tr := rc.phases(func(tr *tracer, d time.Duration) windowStats {
		return rc.sequentialWindow(d, s.usefulFlops(warm.scaleM), func() (float64, bool) {
			runtime.GC() // as in the factor workloads: collect between ops, outside the timed region
			dur, out := s.op(tr, opID)
			opID++
			switch {
			case out.msgs != want:
				rc.fail("op %d message counts %v, closed forms %v", opID-1, out.msgs, want)
				return 0, false
			case first == nil:
				first = &out
			case out.virtual != first.virtual:
				rc.fail("op %d virtual seconds %v differ from op 0's %v", opID-1, out.virtual, first.virtual)
				return 0, false
			}
			outs = append(outs, out)
			return dur.Seconds(), true
		})
	})
	if tr == nil || first == nil {
		return
	}

	var pdMs, scale []float64
	for _, o := range outs {
		pdMs = append(pdMs, o.pdgeqr2S*1e3)
		scale = append(scale, o.scaleS)
	}
	rc.setTiming("scalapack.pdgeqr2_sim_ms", pdMs, 0.5)
	rc.set("scalapack.msgs_per_op", float64(first.msgs[0]))
	rc.set("mpi.event_msgs_per_s", float64(first.msgs[0])/(median(pdMs)/1e3))
	rc.set("mpi.event_ns_per_rank.p4096", median(scale)*1e9/float64(s.scaleRanks))
	rc.set("mpi.event_dispatches_per_msg", float64(first.engine.Dispatches)/float64(first.engine.Deliveries))
	rc.set("mpi.event_parks", float64(first.engine.Parks))

	// ROADMAP item 4a's figure: what one span costs the ring collector,
	// from traced and untraced runs of the same simulation, interleaved.
	var plain, ring []float64
	var seen int64
	for i := 0; i < 3; i++ {
		plain = append(plain, tr.timed("scalapack.PDGEQR2.sim", noSpan, -1, replayLane, func() { s.pdgeqr2() }))
		ring = append(ring, tr.timed("scalapack.PDGEQR2.sim.ring", noSpan, -1, replayLane, func() {
			w, _ := s.pdgeqr2(mpi.TracedRing(telemetry.RingConfig{}))
			seen = w.TraceStats().Seen
		}))
	}
	if seen > 0 {
		rc.set("telemetry.ring_ns_per_span", (median(ring)-median(plain))*1e9/float64(seen))
	}
	rc.finishTrace(tr)
}
