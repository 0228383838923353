package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"gridqr/internal/blas"
	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// runCAQR factors an m×n random matrix with CAQR over the given grid and
// returns the sign-normalized R plus the world.
func runCAQR(t *testing.T, g *grid.Grid, m, n, nb int, seed int64) (*matrix.Dense, *mpi.World, *matrix.Dense) {
	t.Helper()
	p := g.Procs()
	global := matrix.Random(m, n, seed)
	offsets := scalapack.BlockOffsets(m, p)
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var r *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := CAQRFactorize(comm, in, CAQRConfig{NB: nb})
		if ctx.Rank() == 0 {
			mu.Lock()
			r = res.R
			mu.Unlock()
		}
	})
	lapack.NormalizeRSigns(r, nil)
	return r, w, global
}

func TestCAQRSquareMatrix(t *testing.T) {
	// A general (square-ish) matrix, several panels per rank.
	g := grid.SmallTestGrid(2, 2, 1)
	m, n, nb := 64, 32, 4 // 16 rows per rank = 4 panels' worth
	r, _, global := runCAQR(t, g, m, n, nb, 5)
	if !matrix.Equal(r, refR(global), 1e-10) {
		t.Fatal("CAQR R differs from sequential QR")
	}
}

func TestCAQRTallMatrix(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	m, n, nb := 256, 24, 8
	r, _, global := runCAQR(t, g, m, n, nb, 7)
	if !matrix.Equal(r, refR(global), 1e-10) {
		t.Fatal("CAQR R differs from sequential QR on tall input")
	}
}

func TestCAQRPanelNotDividingN(t *testing.T) {
	// N = 30 with NB = 8: last panel is 6 wide.
	g := grid.SmallTestGrid(1, 4, 1)
	m, n, nb := 128, 30, 8
	r, _, global := runCAQR(t, g, m, n, nb, 9)
	if !matrix.Equal(r, refR(global), 1e-10) {
		t.Fatal("CAQR with ragged last panel differs from sequential QR")
	}
}

func TestCAQRSingleProcess(t *testing.T) {
	g := grid.SmallTestGrid(1, 1, 1)
	r, _, global := runCAQR(t, g, 48, 20, 4, 11)
	if !matrix.Equal(r, refR(global), 1e-10) {
		t.Fatal("P=1 CAQR differs from sequential QR")
	}
}

// TestCAQRForwardPathKeepsItsKernel pins R's bits on the forward path: the
// trailing update of a panel of at most lapack.DefaultBlock columns is
// Dorm2r's rank-one sweeps, also at a shape (2048-row panels over 256 and
// more trailing columns) where lapack's block-reflector rule, if asked,
// would pick a block reflector.
func TestCAQRForwardPathKeepsItsKernel(t *testing.T) {
	m, n, nb := 2048, 320, 64
	r, _, global := runCAQR(t, grid.SmallTestGrid(1, 1, 1), m, n, nb, 23)
	f := global.Clone()
	for j := 0; j < n; j += nb {
		panel, tau := f.View(j, j, m-j, nb), make([]float64, nb)
		lapack.Dgeqrf(panel, tau, 0)
		if rest := n - j - nb; rest > 0 {
			lapack.Dorm2r(blas.Trans, panel, tau, f.View(j, j+nb, m-j, rest))
		}
	}
	want := lapack.TriuCopy(f)
	lapack.NormalizeRSigns(want, nil)
	if !bitwiseEqual(r, want) {
		t.Fatal("CAQR's R is not bitwise the R of Dgeqrf panels and Dorm2r trailing updates")
	}
}

func TestCAQRRanksRunOutOfRows(t *testing.T) {
	// N tall enough that upper ranks become inactive mid-factorization:
	// 4 ranks × 8 rows, N = 24 — by the last panel only rank 3 is active.
	g := grid.SmallTestGrid(1, 4, 1)
	r, _, global := runCAQR(t, g, 32, 24, 8, 13)
	if !matrix.Equal(r, refR(global), 1e-10) {
		t.Fatal("CAQR with shrinking active set differs from sequential QR")
	}
}

func TestCAQRInterClusterMessagesPerPanel(t *testing.T) {
	// The communication-avoiding property carried to general matrices:
	// per panel, the tuned tree crosses clusters O(1) times (3 messages
	// per merge pair: R + top rows + top rows back), not O(N).
	clusters := 3
	g := grid.SmallTestGrid(clusters, 2, 1)
	m, n, nb := 240, 16, 4
	_, w, _ := runCAQR(t, g, m, n, nb, 15)
	panels := n / nb
	inter := w.Counters().Inter().Msgs
	// Each panel crosses clusters (clusters-1) merge pairs × 3 messages
	// (last panel: 1 message per pair, no trailing exchange).
	maxWant := int64(panels * (clusters - 1) * 3)
	if inter > maxWant {
		t.Fatalf("inter-cluster messages %d exceed %d", inter, maxWant)
	}
	if inter < int64(panels*(clusters-1)) {
		t.Fatalf("inter-cluster messages %d suspiciously low", inter)
	}
}

func TestCAQRCostOnlyMatchesDataCounts(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	m, n, nb := 128, 16, 4
	offsets := scalapack.BlockOffsets(m, g.Procs())
	run := func(costOnly bool) mpi.CounterSnapshot {
		opt := mpi.Virtual()
		if costOnly {
			opt = mpi.CostOnly()
		}
		w := mpi.NewWorld(g, opt)
		global := matrix.Random(m, n, 17)
		w.Run(func(ctx *mpi.Ctx) {
			in := Input{M: m, N: n, Offsets: offsets}
			if ctx.HasData() {
				in.Local = scalapack.Distribute(global, offsets, ctx.Rank())
			}
			CAQRFactorize(mpi.WorldComm(ctx), in, CAQRConfig{NB: nb})
		})
		return w.Counters()
	}
	d := run(false)
	c := run(true)
	// Rank 0's 32-row block covers all of R (n=16), so the gather moves
	// nothing and the counts must match exactly, class by class.
	if d.PerClass != c.PerClass {
		t.Fatalf("traffic differs:\ndata: %+v\ncost: %+v", d.PerClass, c.PerClass)
	}
	if rel := (d.Flops - c.Flops) / c.Flops; rel > 1e-12 || rel < -1e-12 {
		t.Fatalf("flops differ: %g vs %g", d.Flops, c.Flops)
	}
}

func TestCAQRPanicsOnBadBlocks(t *testing.T) {
	g := grid.SmallTestGrid(1, 2, 1)
	offsets := []int{0, 10, 20} // 10 rows per rank, NB=4 does not divide
	w := mpi.NewWorld(g, mpi.CostOnly())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Run(func(ctx *mpi.Ctx) {
		CAQRFactorize(mpi.WorldComm(ctx), Input{M: 20, N: 8, Offsets: offsets}, CAQRConfig{NB: 4})
	})
}

func TestCAQRPanicsOnWideMatrix(t *testing.T) {
	g := grid.SmallTestGrid(1, 1, 1)
	w := mpi.NewWorld(g, mpi.CostOnly())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Run(func(ctx *mpi.Ctx) {
		CAQRFactorize(mpi.WorldComm(ctx), Input{M: 8, N: 16, Offsets: []int{0, 8}}, CAQRConfig{NB: 4})
	})
}

func TestCAQRIllConditioned(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	m, n, nb := 96, 24, 8
	global := matrix.WithCondition(m, n, 1e10, 19)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var r *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := CAQRFactorize(mpi.WorldComm(ctx), in, CAQRConfig{NB: nb})
		if ctx.Rank() == 0 {
			mu.Lock()
			r = res.R
			mu.Unlock()
		}
	})
	lapack.NormalizeRSigns(r, nil)
	want := refR(global)
	if !matrix.Equal(r, want, 1e-8) {
		t.Fatal("CAQR unstable on ill-conditioned input")
	}
}

func TestCAQRExplicitQ(t *testing.T) {
	for _, tc := range []struct {
		name     string
		g        *grid.Grid
		m, n, nb int
	}{
		{"multi-panel", grid.SmallTestGrid(2, 2, 1), 64, 24, 4},
		{"shrinking-active", grid.SmallTestGrid(1, 4, 1), 32, 24, 8},
		{"single-proc", grid.SmallTestGrid(1, 1, 1), 40, 16, 4},
		{"ragged-panel", grid.SmallTestGrid(1, 2, 1), 48, 22, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			global := matrix.Random(tc.m, tc.n, int64(tc.m))
			offsets := scalapack.BlockOffsets(tc.m, tc.g.Procs())
			w := mpi.NewWorld(tc.g)
			var mu sync.Mutex
			var r, q *matrix.Dense
			w.Run(func(ctx *mpi.Ctx) {
				comm := mpi.WorldComm(ctx)
				in := Input{M: tc.m, N: tc.n, Offsets: offsets,
					Local: scalapack.Distribute(global, offsets, ctx.Rank())}
				res := CAQRFactorize(comm, in, CAQRConfig{NB: tc.nb, WantQ: true})
				qf := scalapack.Collect(comm, res.QLocal, offsets, tc.n)
				if ctx.Rank() == 0 {
					mu.Lock()
					r, q = res.R, qf
					mu.Unlock()
				}
			})
			if e := matrix.OrthoError(q); e > 1e-10 {
				t.Fatalf("CAQR Q orthogonality %g", e)
			}
			if res := matrix.ResidualQR(global, q, r); res > 1e-10 {
				t.Fatalf("CAQR QR residual %g", res)
			}
		})
	}
}

func TestCAQRWantQRejectsCostOnly(t *testing.T) {
	g := grid.SmallTestGrid(1, 1, 1)
	w := mpi.NewWorld(g, mpi.CostOnly())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Run(func(ctx *mpi.Ctx) {
		CAQRFactorize(mpi.WorldComm(ctx), Input{M: 8, N: 4, Offsets: []int{0, 8}},
			CAQRConfig{NB: 4, WantQ: true})
	})
}

// hashBits is an FNV-64a over the IEEE bits of a matrix, column by column.
func hashBits(a *matrix.Dense) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for j := 0; j < a.Cols; j++ {
		for _, v := range a.Col(j) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestCAQRPinned holds CAQR to recorded constants: every message, byte,
// flop and virtual second of two cost-only shapes (the second with an
// active set that shrinks while a trailing matrix remains), and every bit
// of R and of the explicit Q of a data shape. A refactor of the panel walk
// or of the tree's Q must leave all of them where they are.
func TestCAQRPinned(t *testing.T) {
	for _, tc := range []struct {
		m, n, nb int
		perClass [3]mpi.LinkCount
		flops    float64
		clock    float64
	}{
		{m: 240, n: 16, nb: 4, perClass: [3]mpi.LinkCount{{}, {Msgs: 30, Bytes: 5568}, {Msgs: 20, Bytes: 3712}},
			flops: 120149.33333333334, clock: 0.04969234953518466},
		{m: 48, n: 32, nb: 4, perClass: [3]mpi.LinkCount{{}, {Msgs: 46, Bytes: 18688}, {Msgs: 34, Bytes: 13760}},
			flops: 76458.66666666669, clock: 0.1061435703022433},
	} {
		g := grid.SmallTestGrid(3, 2, 1)
		offsets := scalapack.BlockOffsets(tc.m, g.Procs())
		w := mpi.NewWorld(g, mpi.CostOnly())
		w.Run(func(ctx *mpi.Ctx) {
			CAQRFactorize(mpi.WorldComm(ctx), Input{M: tc.m, N: tc.n, Offsets: offsets}, CAQRConfig{NB: tc.nb})
		})
		c := w.Counters()
		if c.PerClass != tc.perClass || c.Flops != tc.flops || w.MaxClock() != tc.clock {
			t.Errorf("%dx%d NB %d cost-only moved:\n got %#v flops %v clock %v\nwant %#v flops %v clock %v",
				tc.m, tc.n, tc.nb, c.PerClass, c.Flops, w.MaxClock(), tc.perClass, tc.flops, tc.clock)
		}
	}

	// Data: 16 rows per rank under 24 columns, so rank 0 retires after
	// panel 3 and the last two panels run on a shrunken tree.
	g := grid.SmallTestGrid(2, 2, 1)
	m, n, nb := 64, 24, 4
	global := matrix.Random(m, n, 29)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	var mu sync.Mutex
	var r, q *matrix.Dense
	mpi.NewWorld(g).Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := CAQRFactorize(comm, in, CAQRConfig{NB: nb, WantQ: true})
		qf := scalapack.Collect(comm, res.QLocal, offsets, n)
		if ctx.Rank() == 0 {
			mu.Lock()
			r, q = res.R, qf
			mu.Unlock()
		}
	})
	const wantR, wantQ = uint64(0x4626fdd3f29fdaaa), uint64(0xfdc30b1fd57d20cb)
	if gotR, gotQ := hashBits(r), hashBits(q); gotR != wantR || gotQ != wantQ {
		t.Errorf("data bits moved: R %#x Q %#x, want R %#x Q %#x", gotR, gotQ, wantR, wantQ)
	}
}
