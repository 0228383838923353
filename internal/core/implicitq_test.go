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

// runImplicit factors a and exercises ApplyQT/ApplyQ inside one world
// run, returning what the probe function extracts on rank 0.
func runImplicit(t *testing.T, g *grid.Grid, a *matrix.Dense, tree Tree,
	probe func(comm *mpi.Comm, res *Result) any) any {
	t.Helper()
	m, n := a.Rows, a.Cols
	offsets := scalapack.BlockOffsets(m, g.Procs())
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var out any
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(a, offsets, ctx.Rank())}
		res := Factorize(comm, in, Config{Tree: tree, KeepFactors: true, ShuffleSeed: 5})
		v := probe(comm, res)
		if ctx.Rank() == 0 {
			mu.Lock()
			out = v
			mu.Unlock()
		}
	})
	return out
}

func TestImplicitQTRecoversRviaA(t *testing.T) {
	// Qᵀ·A = [R; 0]: applying QT to the ORIGINAL matrix must give R on
	// top and zero rest.
	g := grid.SmallTestGrid(2, 2, 1)
	m, n := 120, 5
	a := matrix.Random(m, n, 71)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	type pair struct {
		top  *matrix.Dense
		rest []float64
		r    *matrix.Dense
	}
	got := runImplicit(t, g, a, TreeGrid, func(comm *mpi.Comm, res *Result) any {
		bl := scalapack.Distribute(a, offsets, comm.Rank())
		top, rest := res.Q.ApplyQT(comm, bl)
		return pair{top, rest, res.R}
	}).(pair)
	if !matrix.Equal(got.top, got.r, 1e-10) {
		t.Fatal("QᵀA top block != R")
	}
	for j, s := range got.rest {
		if s > 1e-18 {
			t.Fatalf("QᵀA rest norm² %g nonzero (col %d)", s, j)
		}
	}
}

func TestImplicitRoundTrip(t *testing.T) {
	// Q·(Qᵀ·b) must equal the projection of b onto range(A); for
	// b ∈ range(A), that is b itself.
	g := grid.SmallTestGrid(2, 2, 1)
	m, n := 96, 4
	a := matrix.Random(m, n, 72)
	coeff := matrix.Random(n, 2, 73)
	b := matrix.New(m, 2)
	for i := 0; i < m; i++ {
		for c := 0; c < 2; c++ {
			var s float64
			for j := 0; j < n; j++ {
				s += a.At(i, j) * coeff.At(j, c)
			}
			b.Set(i, c, s)
		}
	}
	offsets := scalapack.BlockOffsets(m, g.Procs())
	diff := runImplicit(t, g, a, TreeGrid, func(comm *mpi.Comm, res *Result) any {
		bl := scalapack.Distribute(b, offsets, comm.Rank())
		top, _ := res.Q.ApplyQT(comm, bl)
		back := res.Q.ApplyQ(comm, top)
		full := scalapack.Collect(comm, back, offsets, 2)
		if comm.Rank() != 0 {
			return nil
		}
		worst := 0.0
		for i := 0; i < m; i++ {
			for c := 0; c < 2; c++ {
				if d := math.Abs(full.At(i, c) - b.At(i, c)); d > worst {
					worst = d
				}
			}
		}
		return worst
	}).(float64)
	if diff > 1e-11 {
		t.Fatalf("Q·Qᵀ·b differs from b by %g for b in range(A)", diff)
	}
}

func TestImplicitMatchesExplicitQ(t *testing.T) {
	// ApplyQ(I) must reproduce the explicit Q exactly: both scatter the
	// identity down the same tree and expand it through the same leaves.
	g := grid.SmallTestGrid(2, 2, 1)
	m, n := 64, 4
	a := matrix.Random(m, n, 74)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	for _, cfg := range []Config{
		{Tree: TreeGrid}, {Tree: TreeBinary}, {Tree: TreeFlat}, {Tree: TreeMultiLevel},
		{Tree: TreeBinaryShuffled, ShuffleSeed: 2}, // roots at rank 1
		{Tree: TreeGrid, Overlap: true},
	} {
		cfg.WantQ, cfg.KeepFactors = true, true
		w := mpi.NewWorld(g)
		var mu sync.Mutex
		var qImp, qExp *matrix.Dense
		w.Run(func(ctx *mpi.Ctx) {
			comm := mpi.WorldComm(ctx)
			in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(a, offsets, ctx.Rank())}
			res := Factorize(comm, in, cfg)
			if (res.Q.root != 0) != (cfg.Tree == TreeBinaryShuffled) {
				t.Errorf("%v: tree roots at rank %d", cfg.Tree, res.Q.root)
			}
			var eye *matrix.Dense
			if ctx.Rank() == 0 {
				eye = matrix.Eye(n)
			}
			impLocal := res.Q.ApplyQ(comm, eye)
			imp := scalapack.Collect(comm, impLocal, offsets, n)
			exp := scalapack.Collect(comm, res.QLocal, offsets, n)
			if ctx.Rank() == 0 {
				mu.Lock()
				qImp, qExp = imp, exp
				mu.Unlock()
			}
		})
		if !matrix.Equal(qImp, qExp, 0) {
			t.Errorf("%v overlap %t: implicit Q(I) differs from explicit Q", cfg.Tree, cfg.Overlap)
		}
	}
}

func TestImplicitQTShuffledTree(t *testing.T) {
	// The root-relocation path: shuffled tree whose root is not rank 0.
	g := grid.SmallTestGrid(2, 2, 1)
	m, n := 80, 4
	a := matrix.Random(m, n, 75)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	type pair struct {
		top *matrix.Dense
		r   *matrix.Dense
	}
	got := runImplicit(t, g, a, TreeBinaryShuffled, func(comm *mpi.Comm, res *Result) any {
		bl := scalapack.Distribute(a, offsets, comm.Rank())
		top, _ := res.Q.ApplyQT(comm, bl)
		return pair{top, res.R}
	}).(pair)
	if got.top == nil || got.r == nil {
		t.Fatal("missing results on rank 0")
	}
	if !matrix.Equal(got.top, got.r, 1e-10) {
		t.Fatal("shuffled-tree QᵀA top != R")
	}
}

func TestImplicitRepeatedApplies(t *testing.T) {
	// Several applies through the same handle must not cross-talk
	// (per-apply tag ranges).
	g := grid.SmallTestGrid(1, 4, 1)
	m, n := 64, 3
	a := matrix.Random(m, n, 76)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	ok := runImplicit(t, g, a, TreeBinary, func(comm *mpi.Comm, res *Result) any {
		for trial := 0; trial < 3; trial++ {
			bl := scalapack.Distribute(a, offsets, comm.Rank())
			top, _ := res.Q.ApplyQT(comm, bl)
			if comm.Rank() == 0 && !matrix.Equal(top, res.R, 1e-10) {
				return false
			}
		}
		return true
	}).(bool)
	if !ok {
		t.Fatal("repeated applies diverged")
	}
}

func TestKeepFactorsRejectsMultiProcDomains(t *testing.T) {
	g := grid.SmallTestGrid(1, 4, 1)
	offsets := scalapack.BlockOffsets(64, 4)
	w := mpi.NewWorld(g)
	a := matrix.Random(64, 4, 77)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Run(func(ctx *mpi.Ctx) {
		in := Input{M: 64, N: 4, Offsets: offsets, Local: scalapack.Distribute(a, offsets, ctx.Rank())}
		Factorize(mpi.WorldComm(ctx), in, Config{DomainsPerCluster: 2, KeepFactors: true})
	})
}

// TestImplicitApplyExactCounts holds the implicit applies to their message
// counts: the tree's seed goes down once (ApplyQ: d−1 blocks of 8nk bytes),
// the tops go up and come back (ApplyQT: 2(d−1) blocks), a tree rooted
// away from rank 0 adds one hop either way, and the rest is collectives —
// measured here, not assumed. LeastSquares is Factorize + ApplyQT + the
// solution's broadcast. On the tuned tree exactly one block per direction
// crosses the two sites.
func TestImplicitApplyExactCounts(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	m, n, k := 64, 4, 3
	a, b := matrix.Random(m, n, 78), matrix.Random(m, k, 79)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	counts := func(body func(comm *mpi.Comm)) mpi.CounterSnapshot {
		w := mpi.NewWorld(g)
		w.Run(func(ctx *mpi.Ctx) { body(mpi.WorldComm(ctx)) })
		return w.Counters()
	}
	input := func(comm *mpi.Comm) Input {
		return Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(a, offsets, comm.Rank())}
	}
	bcast := func(floats int) mpi.CounterSnapshot {
		return counts(func(comm *mpi.Comm) { comm.Bcast(0, make([]float64, floats)) })
	}
	allreduce := counts(func(comm *mpi.Comm) { comm.Allreduce(make([]float64, k), mpi.OpSum) })

	for _, cfg := range []Config{{Tree: TreeGrid}, {Tree: TreeBinaryShuffled, ShuffleSeed: 2}} {
		cfg.KeepFactors = true
		blocks, interBlocks := g.Procs()-1, int64(1)
		hop := 0
		if cfg.Tree == TreeBinaryShuffled {
			hop, interBlocks = 1, -1 // roots at rank 1; where the shuffle crosses sites is its own business
		}
		factor := counts(func(comm *mpi.Comm) { Factorize(comm, input(comm), cfg) })
		// trips: how many times the tree is crossed, one block per merge.
		check := func(what string, got mpi.CounterSnapshot, trips int, parts ...mpi.CounterSnapshot) {
			t.Helper()
			nBlocks := trips*blocks + hop
			want := mpi.LinkCount{Msgs: int64(nBlocks), Bytes: float64(nBlocks * 8 * n * k)}
			wantInter := int64(trips) * interBlocks
			for _, p := range parts {
				want.Msgs, want.Bytes = want.Msgs+p.Total().Msgs, want.Bytes+p.Total().Bytes
				wantInter += p.Inter().Msgs
			}
			if got.Total() != want {
				t.Errorf("%v %s: moved %+v, want %+v", cfg.Tree, what, got.Total(), want)
			}
			if interBlocks > 0 && got.Inter().Msgs != wantInter {
				t.Errorf("%v %s: %d inter-site messages, want %d", cfg.Tree, what, got.Inter().Msgs, wantInter)
			}
		}

		check("ApplyQ", counts(func(comm *mpi.Comm) {
			var c *matrix.Dense
			if comm.Rank() == 0 {
				c = matrix.Random(n, k, 80)
			}
			Factorize(comm, input(comm), cfg).Q.ApplyQ(comm, c)
		}), 1, factor, bcast(1))

		check("ApplyQT", counts(func(comm *mpi.Comm) {
			Factorize(comm, input(comm), cfg).Q.ApplyQT(comm, scalapack.Distribute(b, offsets, comm.Rank()))
		}), 2, factor, allreduce)

		check("LeastSquares", counts(func(comm *mpi.Comm) {
			LeastSquares(comm, input(comm), scalapack.Distribute(b, offsets, comm.Rank()), cfg)
		}), 2, factor, allreduce, bcast(n*k))
	}
}
