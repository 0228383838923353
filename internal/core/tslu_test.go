package core

import (
	"math"
	"sync"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// runTSLU executes TSLU on a small grid, returning the result parts from
// rank 0 plus the reassembled L and the input matrix.
func runTSLU(t *testing.T, g *grid.Grid, m, n int, tree Tree, global *matrix.Dense) (*TSLUResult, *matrix.Dense, *mpi.World) {
	t.Helper()
	p := g.Procs()
	offsets := scalapack.BlockOffsets(m, p)
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var root *TSLUResult
	var lfull *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := TSLUFactorize(comm, in, TSLUConfig{Tree: tree})
		lf := scalapack.Collect(comm, res.LLocal, offsets, n)
		if ctx.Rank() == 0 {
			mu.Lock()
			root = res
			lfull = lf
			mu.Unlock()
		}
	})
	return root, lfull, w
}

// checkTSLU verifies the defining properties of a tournament-pivoting LU:
// exact reconstruction A = L·U, unit-lower structure on the pivot rows,
// and bounded multipliers.
func checkTSLU(t *testing.T, global *matrix.Dense, res *TSLUResult, lfull *matrix.Dense, growthBound float64) {
	t.Helper()
	m, n := global.Rows, global.Cols
	if res.U == nil || len(res.PivotRows) != n {
		t.Fatal("missing U or pivot rows on rank 0")
	}
	if !matrix.IsUpperTriangular(res.U, 0) {
		t.Fatal("U not upper triangular")
	}
	// A = L·U, every row.
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += lfull.At(i, k) * res.U.At(k, j)
			}
			if math.Abs(s-global.At(i, j)) > 1e-10*(1+math.Abs(global.At(i, j))) {
				t.Fatalf("A != L·U at (%d,%d): %g vs %g", i, j, s, global.At(i, j))
			}
		}
	}
	// Pivot rows of L are unit lower triangular in elimination order.
	for k, row := range res.PivotRows {
		if d := lfull.At(row, k); math.Abs(d-1) > 1e-10 {
			t.Fatalf("L[pivot %d][%d] = %g want 1", row, k, d)
		}
		for j := k + 1; j < n; j++ {
			if v := lfull.At(row, j); math.Abs(v) > 1e-10 {
				t.Fatalf("L[pivot %d][%d] = %g want 0", row, j, v)
			}
		}
	}
	if res.MaxL > growthBound {
		t.Fatalf("max |L| = %g exceeds growth bound %g", res.MaxL, growthBound)
	}
}

func TestTSLURandom(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	global := matrix.Random(80, 8, 1)
	res, lfull, _ := runTSLU(t, g, 80, 8, TreeGrid, global)
	checkTSLU(t, global, res, lfull, 10)
}

func TestTSLUAllTrees(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	for _, tree := range []Tree{TreeGrid, TreeBinary, TreeFlat} {
		global := matrix.Random(96, 6, int64(tree)+2)
		res, lfull, _ := runTSLU(t, g, 96, 6, tree, global)
		checkTSLU(t, global, res, lfull, 10)
	}
}

func TestTSLUSingleProcess(t *testing.T) {
	g := grid.SmallTestGrid(1, 1, 1)
	global := matrix.Random(30, 5, 3)
	res, lfull, _ := runTSLU(t, g, 30, 5, TreeGrid, global)
	checkTSLU(t, global, res, lfull, 1+1e-12) // pure GEPP: multipliers ≤ 1
}

func TestTSLUStabilizesTinyLeadingEntries(t *testing.T) {
	// A matrix whose natural (unpivoted) elimination would divide by
	// 1e-12: pivoting must keep multipliers bounded.
	g := grid.SmallTestGrid(2, 2, 1)
	m, n := 40, 4
	global := matrix.Random(m, n, 4)
	global.Set(0, 0, 1e-12)
	res, lfull, _ := runTSLU(t, g, m, n, TreeGrid, global)
	checkTSLU(t, global, res, lfull, 10)
}

func TestTSLUInterClusterMessages(t *testing.T) {
	// The communication-avoiding property: C−1 inter-cluster candidate
	// exchanges plus the U broadcast's cross-cluster hops.
	clusters := 3
	g := grid.SmallTestGrid(clusters, 2, 1)
	global := matrix.Random(120, 5, 6)
	_, _, w := runTSLU(t, g, 120, 5, TreeGrid, global)
	inter := w.Counters().Inter().Msgs
	// Tournament: clusters−1 = 2. Bcast of U: crosses clusters twice
	// (binomial from rank 0 to ranks 2 and 4). Allreduce of MaxL: 2 up,
	// 2 down. Collect (verification): 4 inter sends.
	if inter != 12 {
		t.Fatalf("inter-cluster messages = %d, want exactly 12", inter)
	}
}

func TestTSLUPivotRowsAreDistinct(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	global := matrix.Random(64, 8, 7)
	res, _, _ := runTSLU(t, g, 64, 8, TreeGrid, global)
	seen := map[int]bool{}
	for _, r := range res.PivotRows {
		if r < 0 || r >= 64 {
			t.Fatalf("pivot row %d out of range", r)
		}
		if seen[r] {
			t.Fatalf("pivot row %d selected twice", r)
		}
		seen[r] = true
	}
}

func TestTSLUCostOnly(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	m, n := 64, 8
	offsets := scalapack.BlockOffsets(m, g.Procs())
	w := mpi.NewWorld(g, mpi.CostOnly())
	w.Run(func(ctx *mpi.Ctx) {
		res := TSLUFactorize(mpi.WorldComm(ctx), Input{M: m, N: n, Offsets: offsets},
			TSLUConfig{Tree: TreeGrid})
		if res.U != nil || res.LLocal != nil {
			t.Error("cost-only mode must not produce data")
		}
	})
	c := w.Counters()
	// Tournament 3, broadcast of U 3, allreduce of MaxL 3 up and 3 down.
	if c.Total().Msgs != 12 || c.Flops != 10410.666666666666 {
		t.Fatalf("cost-only TSLU charged %d messages and %v flops, want 12 and 10410.666666666666", c.Total().Msgs, c.Flops)
	}
	if w.MaxClock() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestTSLURejectsShuffledTree(t *testing.T) {
	g := grid.SmallTestGrid(1, 2, 1)
	offsets := scalapack.BlockOffsets(16, 2)
	w := mpi.NewWorld(g, mpi.CostOnly())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Run(func(ctx *mpi.Ctx) {
		TSLUFactorize(mpi.WorldComm(ctx), Input{M: 16, N: 4, Offsets: offsets},
			TSLUConfig{Tree: TreeBinaryShuffled})
	})
}

// --- CholeskyQR ---

func TestCholeskyQRWellConditioned(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	m, n := 120, 8
	global := matrix.Random(m, n, 11)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var q, r *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := CholeskyQR(comm, in)
		if !res.OK {
			t.Error("CholeskyQR failed on a well-conditioned matrix")
			return
		}
		qf := scalapack.Collect(comm, res.QLocal, offsets, n)
		if ctx.Rank() == 0 {
			mu.Lock()
			q, r = qf, res.R
			mu.Unlock()
		}
	})
	if e := matrix.OrthoError(q); e > 1e-10 {
		t.Fatalf("orthogonality %g", e)
	}
	if res := matrix.ResidualQR(global, q, r); res > 1e-12 {
		t.Fatalf("residual %g", res)
	}
	// One allreduce for the Gram matrix, one barrier-free run otherwise:
	// message count far below TSQR's tree+Q traffic is implied by design;
	// check that the factorization used a single reduction's worth.
	if msgs := w.Counters().Total().Msgs; msgs > int64(4*(g.Procs()-1)) {
		t.Fatalf("CholeskyQR used %d messages, expected one allreduce + collect", msgs)
	}
}

func TestCholeskyQRLosesOrthogonality(t *testing.T) {
	// The quantitative version of the paper's stability argument: at
	// cond(A) ≈ 1e7, CholeskyQR's orthogonality error (∝ cond²·ε) is
	// many orders of magnitude worse than TSQR's (∝ ε).
	g := grid.SmallTestGrid(2, 2, 1)
	m, n := 160, 6
	global := matrix.WithCondition(m, n, 1e7, 13)
	offsets := scalapack.BlockOffsets(m, g.Procs())

	var mu sync.Mutex
	var qChol, qTSQR *matrix.Dense
	w := mpi.NewWorld(g)
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := CholeskyQR(comm, in)
		if !res.OK {
			return
		}
		qf := scalapack.Collect(comm, res.QLocal, offsets, n)
		if ctx.Rank() == 0 {
			mu.Lock()
			qChol = qf
			mu.Unlock()
		}
	})
	w2 := mpi.NewWorld(g)
	w2.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := Factorize(comm, in, Config{Tree: TreeGrid, WantQ: true})
		qf := scalapack.Collect(comm, res.QLocal, offsets, n)
		if ctx.Rank() == 0 {
			mu.Lock()
			qTSQR = qf
			mu.Unlock()
		}
	})
	eChol := matrix.OrthoError(qChol)
	eTSQR := matrix.OrthoError(qTSQR)
	if eTSQR > 1e-12 {
		t.Fatalf("TSQR orthogonality degraded: %g", eTSQR)
	}
	if eChol < 1e6*eTSQR {
		t.Fatalf("CholeskyQR error %g not dramatically worse than TSQR's %g", eChol, eTSQR)
	}
}

func TestCholeskyQRFailsOnExtremeConditioning(t *testing.T) {
	// cond ≈ 1e9 squares past 1/ε: the Gram matrix goes numerically
	// indefinite and the scheme must report failure, not garbage.
	g := grid.SmallTestGrid(1, 2, 1)
	m, n := 64, 4
	global := matrix.WithCondition(m, n, 1e9, 17)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	w := mpi.NewWorld(g)
	var failed bool
	var mu sync.Mutex
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := CholeskyQR(comm, in)
		if ctx.Rank() == 0 {
			mu.Lock()
			failed = !res.OK
			mu.Unlock()
		}
	})
	if !failed {
		t.Skip("Gram matrix stayed positive definite at this conditioning; scheme survived")
	}
}

// TestCholeskyQRBreakdownChargesLikeCostOnly: a Cholesky breakdown on a
// data world (the matrix of TestCholeskyQRFailsOnExtremeConditioning)
// still charges the replicated factorization, so every rank ends at the
// clock and flop count of the cost-only run, which cannot break down.
func TestCholeskyQRBreakdownChargesLikeCostOnly(t *testing.T) {
	g := grid.SmallTestGrid(1, 2, 1)
	m, n := 64, 4
	global := matrix.WithCondition(m, n, 1e9, 17)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	run := func(opt mpi.Option) []rankEnd {
		return runEnds(g, opt, func(ctx *mpi.Ctx) {
			in := Input{M: m, N: n, Offsets: offsets}
			if ctx.HasData() {
				in.Local = scalapack.Distribute(global, offsets, ctx.Rank())
			}
			if res := CholeskyQR(mpi.WorldComm(ctx), in); res.OK == ctx.HasData() {
				t.Errorf("rank %d, data=%v: OK = %v", ctx.Rank(), ctx.HasData(), res.OK)
			}
		})
	}
	sameEnds(t, "CholeskyQR breakdown", run(mpi.Virtual()), run(mpi.CostOnly()))
}

func TestCholeskyQRCostOnly(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	offsets := scalapack.BlockOffsets(64, g.Procs())
	w := mpi.NewWorld(g, mpi.CostOnly())
	w.Run(func(ctx *mpi.Ctx) {
		res := CholeskyQR(mpi.WorldComm(ctx), Input{M: 64, N: 8, Offsets: offsets})
		if !res.OK || res.R != nil {
			t.Error("cost-only CholeskyQR should succeed without data")
		}
	})
	if w.Counters().Total().Msgs == 0 {
		t.Fatal("no messages charged")
	}
}

// --- MGS ---

func TestMGSFactorization(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	m, n := 100, 8
	global := matrix.Random(m, n, 41)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var q, r *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := MGS(comm, in)
		qf := scalapack.Collect(comm, res.QLocal, offsets, n)
		if ctx.Rank() == 0 {
			mu.Lock()
			q, r = qf, res.R
			mu.Unlock()
		}
	})
	if e := matrix.OrthoError(q); e > 1e-12 {
		t.Fatalf("MGS orthogonality %g on well-conditioned input", e)
	}
	if res := matrix.ResidualQR(global, q, r); res > 1e-13 {
		t.Fatalf("MGS residual %g", res)
	}
	if !matrix.IsUpperTriangular(r, 0) {
		t.Fatal("MGS R not upper triangular")
	}
}

func TestMGSMessageCountQuadratic(t *testing.T) {
	// The §II-E trade-off, measured: MGS needs Θ(N²) reductions where
	// TSQR needs one tree reduction.
	g := grid.SmallTestGrid(1, 4, 1)
	m := 256
	offsets := scalapack.BlockOffsets(m, 4)
	count := func(n int) int64 {
		w := mpi.NewWorld(g, mpi.CostOnly())
		w.Run(func(ctx *mpi.Ctx) {
			MGS(mpi.WorldComm(ctx), Input{M: m, N: n, Offsets: offsets})
		})
		return w.Counters().Total().Msgs
	}
	m8, m16 := count(8), count(16)
	// Reductions: n(n+1)/2 + n → quadrupling n roughly quadruples msgs.
	ratio := float64(m16) / float64(m8)
	if ratio < 3.2 || ratio > 4.5 {
		t.Fatalf("message growth ratio %g, want ≈3.8 (quadratic in N)", ratio)
	}
	// TSQR on the same problem: one tree (3 messages for 4 domains).
	w := mpi.NewWorld(g, mpi.CostOnly())
	w.Run(func(ctx *mpi.Ctx) {
		Factorize(mpi.WorldComm(ctx), Input{M: m, N: 16, Offsets: offsets}, Config{Tree: TreeGrid})
	})
	if tsqr := w.Counters().Total().Msgs; m16 < 50*tsqr {
		t.Fatalf("MGS (%d msgs) should dwarf TSQR (%d)", m16, tsqr)
	}
}

func TestMGSStabilityBetweenCGSAndTSQR(t *testing.T) {
	// At cond 1e7: MGS's orthogonality error (∝ cond·ε) sits orders of
	// magnitude above TSQR's (∝ ε) but far below CholeskyQR/CGS (∝ cond²·ε).
	g := grid.SmallTestGrid(2, 2, 1)
	m, n := 160, 6
	global := matrix.WithCondition(m, n, 1e7, 43)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	var mu sync.Mutex
	var qm *matrix.Dense
	w := mpi.NewWorld(g)
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := MGS(comm, in)
		qf := scalapack.Collect(comm, res.QLocal, offsets, n)
		if ctx.Rank() == 0 {
			mu.Lock()
			qm = qf
			mu.Unlock()
		}
	})
	eMGS := matrix.OrthoError(qm)
	if eMGS > 1e-7 {
		t.Fatalf("MGS error %g too large (should be ∝ cond·ε ≈ 1e-9)", eMGS)
	}
	if eMGS < 1e-13 {
		t.Fatalf("MGS error %g suspiciously small at cond 1e7", eMGS)
	}
}

// TestTSLUPinned holds TSLU to recorded constants, the TestCAQRPinned
// way: every message, byte, flop and virtual second of cost-only runs on
// two grids under each supported tree, and every bit of U, the pivot
// rows, each rank's rows of L and the growth metric of a data shape. A
// refactor of the tournament's walk must leave all of them where they are.
func TestTSLUPinned(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		clusters, nodes, ppn int
		tree                 Tree
		perClass             [3]mpi.LinkCount
		flops, clock         float64
	}{
		{3, 2, 1, TreeGrid, [3]mpi.LinkCount{{}, {Msgs: 12, Bytes: 3312}, {Msgs: 8, Bytes: 2208}}, 15872, 0.028370647907385436},
		{3, 2, 1, TreeBinary, [3]mpi.LinkCount{{}, {Msgs: 12, Bytes: 3312}, {Msgs: 8, Bytes: 2208}}, 15872, 0.028370647907385436},
		{3, 2, 1, TreeFlat, [3]mpi.LinkCount{{}, {Msgs: 10, Bytes: 2160}, {Msgs: 10, Bytes: 3360}}, 15872, 0.028325616527425344},
		{3, 2, 1, TreeMultiLevel, [3]mpi.LinkCount{{}, {Msgs: 12, Bytes: 3312}, {Msgs: 8, Bytes: 2208}}, 15872, 0.028370647907385436},
		{2, 4, 1, TreeGrid, [3]mpi.LinkCount{{}, {Msgs: 24, Bytes: 6624}, {Msgs: 4, Bytes: 1104}}, 21333.333333333336, 0.028580571502891054},
		{2, 4, 1, TreeBinary, [3]mpi.LinkCount{{}, {Msgs: 24, Bytes: 6624}, {Msgs: 4, Bytes: 1104}}, 21333.333333333336, 0.028580571502891054},
		{2, 4, 1, TreeFlat, [3]mpi.LinkCount{{}, {Msgs: 21, Bytes: 4896}, {Msgs: 7, Bytes: 2832}}, 21333.333333333336, 0.028480362594841074},
		{2, 4, 1, TreeMultiLevel, [3]mpi.LinkCount{{}, {Msgs: 24, Bytes: 6624}, {Msgs: 4, Bytes: 1104}}, 21333.333333333336, 0.028580571502891054},
		{3, 3, 2, TreeGrid, [3]mpi.LinkCount{{Msgs: 36, Bytes: 9936}, {Msgs: 18, Bytes: 5568}, {Msgs: 14, Bytes: 3264}}, 48639.999999999985, 0.04951040072129209},
		{3, 3, 2, TreeBinary, [3]mpi.LinkCount{{Msgs: 36, Bytes: 9936}, {Msgs: 16, Bytes: 4416}, {Msgs: 16, Bytes: 4416}}, 48639.999999999985, 0.05656461248599797},
		{3, 3, 2, TreeFlat, [3]mpi.LinkCount{{Msgs: 28, Bytes: 5328}, {Msgs: 16, Bytes: 4416}, {Msgs: 24, Bytes: 9024}}, 48639.999999999985, 0.049508324630110796},
		{3, 3, 2, TreeMultiLevel, [3]mpi.LinkCount{{Msgs: 36, Bytes: 9936}, {Msgs: 18, Bytes: 5568}, {Msgs: 14, Bytes: 3264}}, 48639.999999999985, 0.04951040072129209},
	} {
		g := grid.SmallTestGrid(tc.clusters, tc.nodes, tc.ppn)
		m := 16 * g.Procs()
		offsets := scalapack.BlockOffsets(m, g.Procs())
		w := mpi.NewWorld(g, mpi.CostOnly())
		w.Run(func(ctx *mpi.Ctx) {
			TSLUFactorize(mpi.WorldComm(ctx), Input{M: m, N: n, Offsets: offsets}, TSLUConfig{Tree: tc.tree})
		})
		c := w.Counters()
		if c.PerClass != tc.perClass || c.Flops != tc.flops || w.MaxClock() != tc.clock {
			t.Errorf("%d×%d×%d %v cost-only moved:\n got %#v flops %v clock %v\nwant %#v flops %v clock %v",
				tc.clusters, tc.nodes, tc.ppn, tc.tree, c.PerClass, c.Flops, w.MaxClock(), tc.perClass, tc.flops, tc.clock)
		}
	}

	// Data: every float the factorization returns, rank by rank.
	g := grid.SmallTestGrid(3, 2, 1)
	m := 16 * g.Procs()
	global := matrix.Random(m, n, 31)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	perRank := make([][]float64, g.Procs())
	mpi.NewWorld(g).Run(func(ctx *mpi.Ctx) {
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := TSLUFactorize(mpi.WorldComm(ctx), in, TSLUConfig{Tree: TreeGrid})
		var bits []float64
		if res.U != nil {
			bits = append(bits, res.U.Data...)
		}
		for _, row := range res.PivotRows {
			bits = append(bits, float64(row))
		}
		perRank[ctx.Rank()] = append(append(bits, res.LLocal.Data...), res.MaxL)
	})
	var all []float64
	for _, bits := range perRank {
		all = append(all, bits...)
	}
	const want = uint64(0x19f012826915246a)
	if got := hashBits(matrix.FromColMajor(len(all), 1, all)); got != want {
		t.Errorf("data bits moved: %#x, want %#x", got, want)
	}
}
