package core

import (
	"math"
	"sync"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
	"gridqr/internal/telemetry"
)

func TestTSQROverlapCorrectness(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *grid.Grid
		cfg  Config
	}{
		{"per-proc-domains", grid.SmallTestGrid(4, 2, 1), Config{Tree: TreeGrid, Overlap: true}},
		{"two-sites", grid.SmallTestGrid(2, 2, 2), Config{Tree: TreeGrid, Overlap: true}},
		{"domains-per-cluster", grid.SmallTestGrid(2, 4, 2), Config{DomainsPerCluster: 2, Tree: TreeGrid, Overlap: true}},
		{"scalapack-leaves", grid.SmallTestGrid(2, 2, 2), Config{DomainsPerCluster: 1, Tree: TreeGrid, Overlap: true}},
		{"binary-tree", grid.SmallTestGrid(2, 2, 2), Config{Tree: TreeBinary, Overlap: true}},
		{"flat-tree", grid.SmallTestGrid(2, 2, 2), Config{Tree: TreeFlat, Overlap: true}},
		{"single-site", grid.SmallTestGrid(1, 4, 1), Config{Tree: TreeGrid, Overlap: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, n := 128, 7
			r, _, _, global := runTSQR(t, tc.g, m, n, tc.cfg, 17)
			if !matrix.Equal(r, refR(global), 1e-10) {
				t.Fatal("overlapped TSQR R differs from sequential")
			}
			tol := 100 * 2.220446049250313e-16 * math.Sqrt(float64(m*n))
			q := qFromR(global, r)
			if res := matrix.ResidualQR(global, q, r); res > tol {
				t.Errorf("‖A−QR‖/‖A‖ = %.3e > %.3e", res, tol)
			}
			if tc.cfg.Tree == TreeGrid {
				return
			}
			// Overlap selects a schedule on TreeGrid only: on any other
			// tree the run is the blocking run, bit for bit and tick for tick.
			blocking := tc.cfg
			blocking.Overlap = false
			rO, msgsO, clockO := runVirtualTSQR(tc.g, global, tc.cfg)
			rB, msgsB, clockB := runVirtualTSQR(tc.g, global, blocking)
			if !bitwiseEqual(rO, rB) || msgsO != msgsB || clockO != clockB {
				t.Errorf("overlap vs blocking: R bits equal = %v, msgs %d vs %d, virtual runtime %g vs %g",
					bitwiseEqual(rO, rB), msgsO, msgsB, clockO, clockB)
			}
		})
	}
}

// runVirtualTSQR factors global on a data-bearing virtual-time world and
// returns rank 0's raw R, the message count and the virtual runtime.
func runVirtualTSQR(g *grid.Grid, global *matrix.Dense, cfg Config) (*matrix.Dense, int64, float64) {
	offsets := scalapack.BlockOffsets(global.Rows, g.Procs())
	w := mpi.NewWorld(g, mpi.Virtual())
	var mu sync.Mutex
	var r *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		in := Input{M: global.Rows, N: global.Cols, Offsets: offsets,
			Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		if res := Factorize(mpi.WorldComm(ctx), in, cfg); ctx.Rank() == 0 {
			mu.Lock()
			r = res.R
			mu.Unlock()
		}
	})
	return r, w.Counters().Total().Msgs, w.MaxClock()
}

func TestTSQROverlapWithQ(t *testing.T) {
	// The backward Q pass reuses the blocking path unmodified; it must
	// compose with the overlapped forward pass and its flat cross-site
	// schedule.
	g := grid.SmallTestGrid(3, 2, 1)
	m, n := 96, 6
	r, q, _, global := runTSQR(t, g, m, n, Config{Tree: TreeGrid, Overlap: true, WantQ: true}, 23)
	if q == nil {
		t.Fatal("no Q returned")
	}
	if e := matrix.OrthoError(q); e > 1e-11*float64(m) {
		t.Fatalf("Q orthogonality error %g", e)
	}
	if res := matrix.ResidualQR(global, q, r); res > 1e-11*float64(m) {
		t.Fatalf("QR residual %g", res)
	}
}

// TestTSQROverlapExactCounts: the overlapped variant must move exactly the
// same traffic as the blocking grid tree — d−1 packed triangles in total,
// C−1 of them inter-site (the formulas behind perfmodel.TSQRExactTotals).
func TestTSQROverlapExactCounts(t *testing.T) {
	const m, n = 1 << 14, 16
	for _, tc := range []struct{ sites, nodes int }{
		{2, 4}, {4, 2}, {3, 3},
	} {
		g := grid.SmallTestGrid(tc.sites, tc.nodes, 1)
		run := func(overlap bool) mpi.CounterSnapshot {
			w := mpi.NewWorld(g, mpi.CostOnly())
			w.Run(func(ctx *mpi.Ctx) {
				Factorize(mpi.WorldComm(ctx),
					Input{M: m, N: n, Offsets: scalapack.BlockOffsets(m, g.Procs())},
					Config{Tree: TreeGrid, Overlap: overlap})
			})
			return w.Counters()
		}
		blocking, overlapped := run(false), run(true)
		bt, ot := blocking.Total(), overlapped.Total()
		if bt.Msgs != ot.Msgs || bt.Bytes != ot.Bytes {
			t.Errorf("%d×%d: totals differ: blocking %+v, overlap %+v", tc.sites, tc.nodes, bt, ot)
		}
		bi, oi := blocking.Inter(), overlapped.Inter()
		if bi.Msgs != oi.Msgs || oi.Msgs != int64(tc.sites-1) {
			t.Errorf("%d×%d: inter-site msgs: blocking %d, overlap %d, want %d",
				tc.sites, tc.nodes, bi.Msgs, oi.Msgs, tc.sites-1)
		}
		// Flop totals to float-accumulation tolerance: the per-rank counters
		// are summed in goroutine completion order.
		if math.Abs(blocking.Flops-overlapped.Flops) > 1e-9*blocking.Flops {
			t.Errorf("%d×%d: flops differ: %g vs %g", tc.sites, tc.nodes, blocking.Flops, overlapped.Flops)
		}
	}
}

// TestTSQROverlapReducesInterSiteWait is the tentpole claim measured: on
// a multi-site grid the overlapped variant must finish earlier and carry
// strictly less inter-site wait on the telemetry critical path than the
// blocking grid tree, with the decomposition still summing exactly.
func TestTSQROverlapReducesInterSiteWait(t *testing.T) {
	const m, n = 1 << 18, 64
	g := grid.SmallTestGrid(4, 2, 1)
	run := func(overlap bool) (telemetry.CriticalPath, float64) {
		w := mpi.NewWorld(g, mpi.CostOnly(), mpi.Traced())
		w.Run(func(ctx *mpi.Ctx) {
			Factorize(mpi.WorldComm(ctx),
				Input{M: m, N: n, Offsets: scalapack.BlockOffsets(m, g.Procs())},
				Config{Tree: TreeGrid, Overlap: overlap})
		})
		return telemetry.AnalyzeCriticalPath(w.Trace()), w.MaxClock()
	}
	blocking, blockClock := run(false)
	overlapped, overClock := run(true)
	if blocking.InterSite <= 0 {
		t.Fatal("blocking run has no inter-site time on the critical path")
	}
	if overlapped.InterSite >= blocking.InterSite {
		t.Errorf("inter-site wait on critical path: overlap %.6fs not below blocking %.6fs",
			overlapped.InterSite, blocking.InterSite)
	}
	if overClock >= blockClock {
		t.Errorf("makespan: overlap %.6fs not below blocking %.6fs", overClock, blockClock)
	}
	for _, cp := range []telemetry.CriticalPath{blocking, overlapped} {
		if math.Abs(cp.Sum()-cp.Total) > 1e-9*(1+cp.Total) {
			t.Errorf("critical-path decomposition sum %g != total %g", cp.Sum(), cp.Total)
		}
	}
	t.Logf("inter-site wait: blocking %.6fs, overlapped %.6fs (makespan %.6fs -> %.6fs)",
		blocking.InterSite, overlapped.InterSite, blockClock, overClock)
}

// TestTSQROverlapUnderDelayFaults: fault-injected link delays must not
// perturb the overlapped reduction's numerics — the result stays within
// the backward-error bound, and the injected delays are visible in the
// virtual makespan.
func TestTSQROverlapUnderDelayFaults(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	m, n := 96, 6
	global := matrix.Random(m, n, 31)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	plan := mpi.NewFaultPlan(7).Delay(mpi.AnyRank, mpi.AnyRank, mpi.AnyTag, 0.5, 2e-3, 0)
	w := mpi.NewWorld(g, mpi.WithFaults(plan))
	var mu sync.Mutex
	var r *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		res := Factorize(comm, Input{M: m, N: n, Offsets: offsets,
			Local: scalapack.Distribute(global, offsets, ctx.Rank())},
			Config{Tree: TreeGrid, Overlap: true})
		if ctx.Rank() == 0 {
			mu.Lock()
			r = res.R
			mu.Unlock()
		}
	})
	lapack.NormalizeRSigns(r, nil)
	tol := 100 * 2.220446049250313e-16 * math.Sqrt(float64(m*n))
	q := qFromR(global, r)
	if res := matrix.ResidualQR(global, q, r); res > tol {
		t.Errorf("‖A−QR‖/‖A‖ = %.3e > %.3e under delay faults", res, tol)
	}
	if fc := w.FaultCounts(); fc.Delays == 0 {
		t.Error("delay plan injected nothing; the test is vacuous")
	}
}
