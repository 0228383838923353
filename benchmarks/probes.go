package main

import (
	"runtime"
	"sync"

	"gridqr/internal/blas"
	"gridqr/internal/core"
	"gridqr/internal/flops"
	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// Replayed pieces: each probe times the call into one layer's public
// function on a workload's own shapes, one span per repetition, and
// returns the per-repetition seconds. They run after the timed windows
// of a traced run, on the replay lane of the trace.

const replayLane = 1000

// prober runs the replayed pieces under a tracer. A smoke prober makes
// two repetitions of everything on tiny inputs.
type prober struct {
	tr    *tracer
	smoke bool
}

// step is one replayed piece: fn is timed under a span of the given
// name; prep, when non-nil, restores its input outside the timed region.
type step struct {
	name     string
	prep, fn func()
}

// rounds times the steps in turn, round after round — at least minRounds
// and until budget seconds of timed work are spent — and returns each
// step's seconds per round. Pieces whose times are divided by one another
// go into one call, so that a slow spell of the host falls on all alike.
func (p prober) rounds(minRounds int, budget float64, steps ...step) [][]float64 {
	if p.smoke {
		minRounds, budget = 2, 0
	}
	out := make([][]float64, len(steps))
	var spent float64
	for n := 0; (n < minRounds || spent < budget) && n < 10000; n++ {
		for i, st := range steps {
			if st.prep != nil {
				st.prep()
			}
			d := p.tr.timed(st.name, noSpan, -1, replayLane, st.fn)
			out[i] = append(out[i], d)
			spent += d
		}
	}
	return out
}

// reps is rounds of a single step.
func (p prober) reps(name string, minReps int, budget float64, prep, fn func()) []float64 {
	return p.rounds(minReps, budget, step{name, prep, fn})[0]
}

// copyStep is matrix.Copy from src into dst, the bandwidth roofline.
// The arrays are factor_tall's input and a buffer of its shape, 256 MiB
// each: at least four times the last-level cache wherever that is 64 MiB
// or less. The issue's cap of 1 GiB is not used, because the first touch
// of fresh memory costs this virtual machine 3 to 7 s per GiB.
func copyStep(src, dst *matrix.Dense) step {
	return step{"matrix.Copy.roofline", nil, func() { matrix.Copy(dst, src) }}
}

// copyGBps converts copyStep's seconds to GB/s, counting the bytes read
// plus the bytes written.
func copyGBps(src *matrix.Dense, sec float64) float64 { return 2 * panelBytes(src) / sec / 1e9 }

func panelBytes(a *matrix.Dense) float64 { return float64(a.Rows) * float64(a.Cols) * 8 }

// copyRoof measures the bandwidth roofline alone, for the fingerprint.
func (p prober) copyRoof(src, dst *matrix.Dense) float64 {
	matrix.Copy(dst, src) // first touch of dst
	st := copyStep(src, dst)
	return copyGBps(src, median(p.reps(st.name, 3, 0.3, nil, st.fn)))
}

// dgemm measures the compute roof: Dgemm on 512³.
func (p prober) dgemm() float64 {
	n := 512
	if p.smoke {
		n = 64
	}
	a, b, c := matrix.Random(n, n, 1), matrix.Random(n, n, 2), matrix.New(n, n)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c) // warm the pool and the packing buffers
	d := p.reps("blas.Dgemm.512", 5, 0.2, nil, func() {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
	})
	return flops.GEMM(n, n, n) / median(d) / 1e9
}

// level2Steps are the two level-2 kernels Householder QR is built on,
// over the panel a (which Dger perturbs by about 1e-21 per call). Their
// GB/s are computed from array sizes: Dgemv reads the panel once, Dger
// reads and writes it once.
func level2Steps(a *matrix.Dense) (gemvT, ger step) {
	x := make([]float64, a.Rows)
	y := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1e-3
	}
	gemvT = step{"blas.Dgemv.T.leaf", nil, func() { blas.Dgemv(blas.Trans, 1, a, x, 0, y) }}
	ger = step{"blas.Dger.leaf", nil, func() { blas.Dger(1e-9, x, y, a) }}
	return gemvT, ger
}

// dgeqrfStep is a bare Dgeqrf on a copy of src made in work.
func dgeqrfStep(name string, src, work *matrix.Dense) step {
	tau := make([]float64, min(src.Rows, src.Cols))
	return step{name, func() { matrix.Copy(work, src) }, func() { lapack.Dgeqrf(work, tau, 0) }}
}

// dgeqrf times a bare Dgeqrf of src's shape and returns Gflop/s.
func (p prober) dgeqrf(name string, src *matrix.Dense, minReps int, budget float64) float64 {
	st := dgeqrfStep(name, src, matrix.New(src.Rows, src.Cols))
	return flops.GEQRF(src.Rows, src.Cols) / median(p.reps(name, minReps, budget, st.prep, st.fn)) / 1e9
}

// dgeqrfOpsPerByte is computed from array sizes, not measured: the flops
// of Dgeqrf over its compulsory traffic, the panel read once and written
// once. Cache misses in the level-2 sweeps move more.
func dgeqrfOpsPerByte(m, n int) float64 {
	return flops.GEQRF(m, n) / (16 * float64(m) * float64(n))
}

// dorgqr times forming the explicit Q of a factored panel.
func (p prober) dorgqr(src *matrix.Dense) float64 {
	f := src.Clone()
	tau := make([]float64, f.Cols)
	lapack.Dgeqrf(f, tau, 0)
	// Collecting the last repetition's Q first lets the next one reuse
	// its memory and not fault in a fresh 128 MiB.
	d := p.reps("lapack.Dorgqr.leaf", 2, 0.5, runtime.GC, func() { lapack.Dorgqr(f, tau, f.Cols) })
	return flops.ORGQR(f.Rows, f.Cols) / median(d) / 1e9
}

// randomTriu returns the R factor of a random 2n×n matrix.
func randomTriu(n int, seed int64) *matrix.Dense {
	return core.FactorizeLocal(matrix.Random(2*n, n, seed), 0)
}

// stackQR times the TSQR reduction operation on two n×n triangles
// and the application of its implicit Q to a stacked n×n pair, in µs.
func (p prober) stackQR(n int) (stackUs, applyUs float64) {
	r1, r2 := randomTriu(n, 11), randomTriu(n, 12)
	var v *matrix.Dense
	var tau []float64
	d := p.reps("lapack.StackQR", 20, 0.1, nil, func() { _, v, tau = lapack.StackQR(r1, r2) })
	stackUs = median(d) * 1e6
	c1, c2 := matrix.Eye(n), matrix.New(n, n)
	d = p.reps("lapack.ApplyStackQ", 20, 0.1,
		func() { matrix.Copy(c1, matrix.Eye(n)); c2.Zero() },
		func() { lapack.ApplyStackQ(v, tau, false, c1, c2) })
	applyUs = median(d) * 1e6
	return stackUs, applyUs
}

// leavesStep runs every rank's bare Dgeqrf at once, one goroutine per
// rank as in the op, on copies of blocks made in work: its time is that
// of the slowest rank's leaf.
func leavesStep(blocks, work []*matrix.Dense) step {
	taus := make([][]float64, len(blocks))
	for r, b := range blocks {
		taus[r] = make([]float64, b.Cols)
	}
	return step{"lapack.Dgeqrf.ranks",
		func() {
			for r, b := range blocks {
				matrix.Copy(work[r], b)
			}
		},
		func() {
			var wg sync.WaitGroup
			for r := range work {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					lapack.Dgeqrf(work[r], taus[r], 0)
				}(r)
			}
			wg.Wait()
		}}
}

// walk runs the same Factorize on a cost-only world forced onto the
// goroutine engine: the schedule walk and message transit with zero
// arithmetic, world spin-up included. Milliseconds.
func (p prober) walk(g *grid.Grid, m, n int, cfg core.Config) float64 {
	offsets := scalapack.BlockOffsets(m, g.Procs())
	d := p.reps("core.Factorize.costonly", 5, 0.3, nil, func() {
		w := mpi.NewWorld(g, mpi.CostOnly(), mpi.GoroutineEngine())
		w.Run(func(ctx *mpi.Ctx) {
			core.Factorize(mpi.WorldComm(ctx), core.Input{M: m, N: n, Offsets: offsets}, cfg)
		})
	})
	return median(d) * 1e3
}

// spinup times NewWorld plus Run of an empty body, in µs.
func (p prober) spinup(g *grid.Grid) float64 {
	d := p.reps("mpi.NewWorld+Run.empty", 20, 0.1, nil, func() {
		mpi.NewWorld(g).Run(func(*mpi.Ctx) {})
	})
	return median(d) * 1e6
}

// pingPong returns the half round trip, in µs, of a packed 64×64
// triangle (2080 values) between two goroutine ranks.
func (p prober) pingPong() float64 {
	const values = 64 * 65 / 2
	trips := 2000
	if p.smoke {
		trips = 50
	}
	payload := make([]float64, values)
	w := mpi.NewWorld(grid.SmallTestGrid(1, 2, 1))
	var sec float64
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		if comm.Rank() == 0 {
			sec = p.tr.timed("mpi.pingpong", noSpan, -1, replayLane, func() {
				for i := 0; i < trips; i++ {
					comm.Send(1, payload, i)
					comm.Recv(1, i)
				}
			})
			return
		}
		for i := 0; i < trips; i++ {
			comm.Send(0, comm.Recv(0, i), i)
		}
	})
	return sec / float64(2*trips) * 1e6
}
