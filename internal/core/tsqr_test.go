package core

import (
	"fmt"
	"sync"
	"testing"

	"gridqr/internal/flops"
	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// runTSQR executes a data-mode TSQR on a small test grid and returns R
// (sign-normalized), the distributed Q reassembled on rank 0 (if WantQ),
// the world (for counters) and the input matrix.
func runTSQR(t *testing.T, g *grid.Grid, m, n int, cfg Config, seed int64) (*matrix.Dense, *matrix.Dense, *mpi.World, *matrix.Dense) {
	t.Helper()
	p := g.Procs()
	global := matrix.Random(m, n, seed)
	offsets := scalapack.BlockOffsets(m, p)
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var r, q *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := Factorize(comm, in, cfg)
		var qfull *matrix.Dense
		if cfg.WantQ {
			qfull = scalapack.Collect(comm, res.QLocal, offsets, n)
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			r, q = res.R, qfull
			mu.Unlock()
		}
	})
	if r != nil {
		lapack.NormalizeRSigns(r, q)
	}
	return r, q, w, global
}

func refR(global *matrix.Dense) *matrix.Dense {
	r := FactorizeLocal(global, 0)
	lapack.NormalizeRSigns(r, nil)
	return r
}

func TestTSQROneDomainPerProcess(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2) // 8 procs, 2 clusters
	for _, tree := range []Tree{TreeGrid, TreeBinary, TreeFlat, TreeBinaryShuffled} {
		cfg := Config{Tree: tree, ShuffleSeed: 3}
		r, _, _, global := runTSQR(t, g, 64, 6, cfg, 1)
		if !matrix.Equal(r, refR(global), 1e-10) {
			t.Fatalf("tree=%v: TSQR R differs from sequential", tree)
		}
	}
}

func TestTSQRDomainsPerClusterSweep(t *testing.T) {
	g := grid.SmallTestGrid(2, 4, 2) // 2 clusters × 8 procs
	for _, d := range []int{1, 2, 4, 8} {
		cfg := Config{DomainsPerCluster: d, Tree: TreeGrid}
		r, _, _, global := runTSQR(t, g, 128, 7, cfg, int64(d))
		if !matrix.Equal(r, refR(global), 1e-10) {
			t.Fatalf("domains/cluster=%d: R differs from sequential", d)
		}
	}
}

func TestTSQRMultiProcDomainUsesScaLAPACK(t *testing.T) {
	// 1 domain per cluster of 4 procs: leaf goes through PDGEQR2.
	g := grid.SmallTestGrid(3, 2, 2)
	cfg := Config{DomainsPerCluster: 1, Tree: TreeGrid}
	r, _, _, global := runTSQR(t, g, 96, 5, cfg, 9)
	if !matrix.Equal(r, refR(global), 1e-10) {
		t.Fatal("multi-process-domain TSQR R differs from sequential")
	}
}

func TestTSQRSingleProcess(t *testing.T) {
	g := grid.SmallTestGrid(1, 1, 1)
	r, _, _, global := runTSQR(t, g, 40, 8, Config{Tree: TreeGrid}, 11)
	if !matrix.Equal(r, refR(global), 1e-11) {
		t.Fatal("P=1 TSQR differs from sequential")
	}
}

func TestTSQRWithQ(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *grid.Grid
		cfg  Config
	}{
		{"per-proc-domains", grid.SmallTestGrid(2, 2, 2), Config{Tree: TreeGrid, WantQ: true}},
		{"flat-tree", grid.SmallTestGrid(2, 2, 2), Config{Tree: TreeFlat, WantQ: true}},
		{"binary-tree", grid.SmallTestGrid(2, 2, 2), Config{Tree: TreeBinary, WantQ: true}},
		{"scalapack-leaves", grid.SmallTestGrid(2, 2, 2), Config{DomainsPerCluster: 2, Tree: TreeGrid, WantQ: true}},
		{"one-domain-per-cluster", grid.SmallTestGrid(2, 2, 2), Config{DomainsPerCluster: 1, Tree: TreeGrid, WantQ: true}},
		{"shuffled", grid.SmallTestGrid(2, 2, 2), Config{Tree: TreeBinaryShuffled, ShuffleSeed: 5, WantQ: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, n := 72, 6
			r, q, _, global := runTSQR(t, tc.g, m, n, tc.cfg, 21)
			if q == nil {
				t.Fatal("no Q returned")
			}
			if e := matrix.OrthoError(q); e > 1e-11*float64(m) {
				t.Fatalf("Q orthogonality error %g", e)
			}
			if res := matrix.ResidualQR(global, q, r); res > 1e-11*float64(m) {
				t.Fatalf("QR residual %g", res)
			}
		})
	}
}

func TestTSQRInterClusterMessagesGridTree(t *testing.T) {
	// The heart of Fig. 2: the tuned tree uses exactly C−1 inter-cluster
	// messages, independent of N and of the number of domains.
	for _, clusters := range []int{2, 3, 4} {
		for _, dpc := range []int{1, 2, 4} {
			g := grid.SmallTestGrid(clusters, 4, 1)
			cfg := Config{DomainsPerCluster: dpc, Tree: TreeGrid}
			_, _, w, _ := runTSQR(t, g, 256, 3, cfg, 7)
			got := w.Counters().Inter().Msgs
			if got != int64(clusters-1) {
				t.Fatalf("clusters=%d domains/cluster=%d: %d inter-cluster messages, want %d",
					clusters, dpc, got, clusters-1)
			}
		}
	}
}

func TestTSQRFlatTreeMessageCount(t *testing.T) {
	g := grid.SmallTestGrid(1, 8, 1)
	_, _, w, _ := runTSQR(t, g, 128, 4, Config{Tree: TreeFlat}, 13)
	if got := w.Counters().Total().Msgs; got != 7 {
		t.Fatalf("flat tree: %d messages want 7", got)
	}
}

func TestTSQRBinaryTreeMessageCount(t *testing.T) {
	g := grid.SmallTestGrid(1, 8, 1)
	_, _, w, _ := runTSQR(t, g, 128, 4, Config{Tree: TreeBinary}, 13)
	// A binomial reduction over 8 domains has 7 edges.
	if got := w.Counters().Total().Msgs; got != 7 {
		t.Fatalf("binary tree: %d messages want 7", got)
	}
}

func TestTSQRMessageVolumeIsPackedTriangles(t *testing.T) {
	g := grid.SmallTestGrid(1, 4, 1)
	n := 6
	_, _, w, _ := runTSQR(t, g, 64, n, Config{Tree: TreeBinary}, 17)
	want := 3 * triuBytes(n) // 3 merges, each a packed n×n triangle
	if got := w.Counters().Total().Bytes; got != want {
		t.Fatalf("volume = %g bytes want %g", got, want)
	}
}

func TestTSQRShuffledTreeDeliversToRank0(t *testing.T) {
	// Whatever the shuffle, R must land on world rank 0 and be right.
	g := grid.SmallTestGrid(2, 2, 1)
	for seed := int64(0); seed < 8; seed++ {
		cfg := Config{Tree: TreeBinaryShuffled, ShuffleSeed: seed}
		r, _, _, global := runTSQR(t, g, 48, 4, cfg, seed)
		if r == nil {
			t.Fatalf("seed %d: no R on rank 0", seed)
		}
		if !matrix.Equal(r, refR(global), 1e-10) {
			t.Fatalf("seed %d: R differs from sequential", seed)
		}
	}
}

func TestTSQRCostOnlyMatchesDataCounts(t *testing.T) {
	// Cost-only and data-mode runs must charge identical messages,
	// volume and flops — the property that justifies running the paper's
	// 33M-row experiments without data.
	g := grid.SmallTestGrid(2, 2, 2)
	m, n := 512, 16
	offsets := scalapack.BlockOffsets(m, g.Procs())
	for _, cfg := range []Config{
		{Tree: TreeGrid},
		{Tree: TreeGrid, DomainsPerCluster: 1},
		{Tree: TreeGrid, DomainsPerCluster: 2, WantQ: true},
		{Tree: TreeFlat, WantQ: true},
	} {
		run := func(costOnly bool) (mpi.CounterSnapshot, float64) {
			opt := mpi.Virtual()
			if costOnly {
				opt = mpi.CostOnly()
			}
			w := mpi.NewWorld(g, opt)
			global := matrix.Random(m, n, 3)
			w.Run(func(ctx *mpi.Ctx) {
				comm := mpi.WorldComm(ctx)
				in := Input{M: m, N: n, Offsets: offsets}
				if ctx.HasData() {
					in.Local = scalapack.Distribute(global, offsets, ctx.Rank())
				}
				Factorize(comm, in, cfg)
			})
			return w.Counters(), w.MaxClock()
		}
		snapData, timeData := run(false)
		snapCost, timeCost := run(true)
		if snapData.PerClass != snapCost.PerClass {
			t.Fatalf("cfg=%+v: traffic differs\ndata: %+v\ncost: %+v", cfg, snapData.PerClass, snapCost.PerClass)
		}
		// The shared flop counter accumulates in goroutine-scheduling
		// order, so compare within floating-point roundoff.
		if d := (snapData.Flops - snapCost.Flops) / snapCost.Flops; d > 1e-12 || d < -1e-12 {
			t.Fatalf("cfg=%+v: flops differ: %g vs %g", cfg, snapData.Flops, snapCost.Flops)
		}
		if timeData != timeCost {
			t.Fatalf("cfg=%+v: virtual times differ: %g vs %g", cfg, timeData, timeCost)
		}
	}
}

func TestTSQRChargedFlopsMatchModel(t *testing.T) {
	// Table I: TSQR total flops ≈ P·[(2MN²−2N³/3)/P] + (P−1)·(2/3)N³
	// (the paper's per-domain critical path times P domains, with one
	// stack-QR per tree edge).
	g := grid.SmallTestGrid(1, 8, 1)
	m, n, p := 4096, 16, 8
	offsets := scalapack.BlockOffsets(m, p)
	w := mpi.NewWorld(g, mpi.CostOnly())
	w.Run(func(ctx *mpi.Ctx) {
		Factorize(mpi.WorldComm(ctx), Input{M: m, N: n, Offsets: offsets}, Config{Tree: TreeBinary})
	})
	got := w.Counters().Flops
	want := flops.GEQRF(m, n) + float64(p-1)*flops.StackQR(n)
	if diff := (got - want) / want; diff > 0.02 || diff < -0.02 {
		t.Fatalf("charged flops %g vs model %g", got, want)
	}
}

func TestTSQRPanicsOnShortDomains(t *testing.T) {
	g := grid.SmallTestGrid(1, 4, 1)
	offsets := scalapack.BlockOffsets(16, 4) // 4 rows per domain < N=8
	w := mpi.NewWorld(g, mpi.CostOnly())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for domains shorter than N")
		}
	}()
	w.Run(func(ctx *mpi.Ctx) {
		Factorize(mpi.WorldComm(ctx), Input{M: 16, N: 8, Offsets: offsets}, Config{})
	})
}

func TestTSQRPanicsOnIndivisibleDomains(t *testing.T) {
	g := grid.SmallTestGrid(1, 4, 1)
	offsets := scalapack.BlockOffsets(64, 4)
	w := mpi.NewWorld(g, mpi.CostOnly())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 3 domains over 4 ranks")
		}
	}()
	w.Run(func(ctx *mpi.Ctx) {
		Factorize(mpi.WorldComm(ctx), Input{M: 64, N: 4, Offsets: offsets},
			Config{DomainsPerCluster: 3})
	})
}

func TestTSQRIllConditioned(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	p := g.Procs()
	m, n := 120, 6
	global := matrix.WithCondition(m, n, 1e10, 23)
	offsets := scalapack.BlockOffsets(m, p)
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var r, q *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := Factorize(comm, in, Config{Tree: TreeGrid, WantQ: true})
		qfull := scalapack.Collect(comm, res.QLocal, offsets, n)
		if ctx.Rank() == 0 {
			mu.Lock()
			r, q = res.R, qfull
			mu.Unlock()
		}
	})
	// Backward stability: residual and orthogonality at machine-precision
	// scale even at condition 1e10 (the paper's stability claim for TSQR).
	if e := matrix.OrthoError(q); e > 1e-11 {
		t.Fatalf("orthogonality %g on ill-conditioned input", e)
	}
	if res := matrix.ResidualQR(global, q, r); res > 1e-11 {
		t.Fatalf("residual %g on ill-conditioned input", res)
	}
}

func TestTreeString(t *testing.T) {
	for tree, want := range map[Tree]string{
		TreeGrid: "grid", TreeBinary: "binary", TreeFlat: "flat",
		TreeBinaryShuffled: "binary-shuffled", Tree(99): "Tree(99)",
	} {
		if got := tree.String(); got != want {
			t.Fatalf("Tree.String() = %q want %q", got, want)
		}
	}
}

func TestPackUnpackTriu(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		r := matrix.Random(n, n, int64(n))
		for j := 0; j < n; j++ {
			for i := j + 1; i < n; i++ {
				r.Set(i, j, 0)
			}
		}
		buf := packTriu(r)
		if len(buf) != n*(n+1)/2 {
			t.Fatalf("packed length %d", len(buf))
		}
		back := unpackTriu(buf, n)
		if !matrix.Equal(r, back, 0) {
			t.Fatalf("n=%d: pack/unpack mismatch", n)
		}
	}
}

func TestBuildLayout(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	w := mpi.NewWorld(g, mpi.CostOnly())
	w.Run(func(ctx *mpi.Ctx) {
		if ctx.Rank() != 0 {
			return
		}
		l := buildLayout(mpi.WorldComm(ctx), 2)
		if len(l.domains) != 4 {
			t.Errorf("domains = %d want 4", len(l.domains))
		}
		if len(l.perCluster[0]) != 2 || len(l.perCluster[1]) != 2 {
			t.Errorf("per-cluster layout wrong: %v", l.perCluster)
		}
		// Domain 2 is the first domain of cluster 1: ranks 4,5.
		d := l.domains[2]
		if d.cluster != 1 || d.leader() != 4 {
			t.Errorf("domain 2 = %+v", d)
		}
		if l.mine(5).id != 2 {
			t.Errorf("rank 5 in domain %d want 2", l.mine(5).id)
		}
	})
}

func TestScheduleShapes(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	w := mpi.NewWorld(g, mpi.CostOnly())
	w.Run(func(ctx *mpi.Ctx) {
		if ctx.Rank() != 0 {
			return
		}
		l := buildLayout(mpi.WorldComm(ctx), 0) // 4 domains, 2 per cluster
		ms, root := buildSchedule(TreeGrid, l, 0)
		if root != 0 {
			t.Errorf("grid root = %d", root)
		}
		// Per-cluster merges first (0<-1, 2<-3), then across (0<-2).
		want := []merge{{0, 1}, {2, 3}, {0, 2}}
		if len(ms) != len(want) {
			t.Fatalf("schedule %v", ms)
		}
		for i := range want {
			if ms[i] != want[i] {
				t.Fatalf("schedule %v want %v", ms, want)
			}
		}
		ms, _ = buildSchedule(TreeFlat, l, 0)
		if len(ms) != 3 || ms[0] != (merge{0, 1}) || ms[2] != (merge{0, 3}) {
			t.Fatalf("flat schedule %v", ms)
		}
	})
}

func TestBinomialScheduleOddCount(t *testing.T) {
	ms := binomialSchedule([]int{0, 1, 2, 3, 4})
	// mask 1: (0,1) (2,3); mask 2: (0,2); mask 4: (0,4) — 4 edges.
	if len(ms) != 4 {
		t.Fatalf("edges = %d want 4: %v", len(ms), ms)
	}
	seen := map[int]bool{}
	for _, m := range ms {
		if seen[m.src] {
			t.Fatalf("domain %d absorbed twice", m.src)
		}
		seen[m.src] = true
	}
	if seen[0] {
		t.Fatal("root must never be a source")
	}
}

func TestTSQRNonUniformRows(t *testing.T) {
	// Offsets with uneven blocks (m not divisible by p).
	g := grid.SmallTestGrid(1, 3, 1)
	r, _, _, global := runTSQR(t, g, 50, 4, Config{Tree: TreeBinary}, 29)
	if !matrix.Equal(r, refR(global), 1e-11) {
		t.Fatal("uneven row blocks broke TSQR")
	}
	_ = fmt.Sprintf("%v", global.Rows)
}

func TestTSQRGradedMatrixRobustness(t *testing.T) {
	// Rows spanning 200 orders of magnitude: the scaled Dlarfg/Dnrm2
	// paths must survive end-to-end through the distributed pipeline.
	g := grid.SmallTestGrid(2, 2, 1)
	m, n := 64, 4
	global := matrix.Graded(m, n, -120, 120, 51)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var r *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := Factorize(comm, in, Config{Tree: TreeGrid})
		if ctx.Rank() == 0 {
			mu.Lock()
			r = res.R
			mu.Unlock()
		}
	})
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			v := r.At(i, j)
			if v != v || v > 1e300 || v < -1e300 { // NaN or overflow
				t.Fatalf("R[%d][%d] = %g not finite", i, j, v)
			}
		}
	}
	// ‖R‖_F must match ‖A‖_F (orthogonal invariance), the cheap check
	// that survives extreme scaling.
	na, nr := matrix.NormFrob(global), matrix.NormFrob(r)
	if d := (na - nr) / na; d > 1e-12 || d < -1e-12 {
		t.Fatalf("norm invariance violated: %g vs %g", na, nr)
	}
}

// Property-style sweep: random shapes, process counts and trees all agree
// with the sequential factorization.
func TestTSQRRandomizedConfigs(t *testing.T) {
	trees := []Tree{TreeGrid, TreeBinary, TreeFlat, TreeBinaryShuffled}
	for seed := int64(0); seed < 12; seed++ {
		rng := seed
		clusters := int(1 + rng%3)
		procsPer := int(1 + (rng/3)%3)
		n := int(2 + (rng/2)%7)
		g := grid.SmallTestGrid(clusters, procsPer, 1)
		p := g.Procs()
		m := p*n + int(rng%5)*p // enough rows, uneven blocks
		tree := trees[rng%4]
		cfg := Config{Tree: tree, ShuffleSeed: seed}
		r, _, _, global := runTSQR(t, g, m, n, cfg, seed+100)
		if !matrix.Equal(r, refR(global), 1e-9) {
			t.Fatalf("seed=%d clusters=%d procs=%d n=%d m=%d tree=%v: R mismatch",
				seed, clusters, procsPer, n, m, tree)
		}
	}
}
