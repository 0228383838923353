package scalapack

import (
	"math"
	"sync"
	"testing"

	"gridqr/internal/flops"
	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/testmat"
)

func TestBlockOffsets(t *testing.T) {
	off := BlockOffsets(10, 3)
	want := []int{0, 4, 7, 10}
	for i := range want {
		if off[i] != want[i] {
			t.Fatalf("offsets = %v want %v", off, want)
		}
	}
	off = BlockOffsets(8, 4)
	if off[4] != 8 || off[1] != 2 {
		t.Fatalf("even offsets = %v", off)
	}
	// More parts than rows: trailing empty blocks.
	off = BlockOffsets(2, 4)
	if off[4] != 2 {
		t.Fatalf("offsets = %v", off)
	}
}

func TestBlockOffsetsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BlockOffsets(5, 0)
}

// runDistributedQR factors an m×n random matrix over p ranks and returns
// the R from rank 0 (sign-normalized) plus the world for counter checks.
func runDistributedQR(t *testing.T, m, n, p int, seed int64,
	factor func(*mpi.Comm, Input) *Factorization) (*matrix.Dense, *mpi.World, *matrix.Dense) {
	t.Helper()
	global := matrix.Random(m, n, seed)
	offsets := BlockOffsets(m, p)
	w := mpi.NewWorld(grid.SmallTestGrid(1, p, 1))
	var mu sync.Mutex
	var r *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: Distribute(global, offsets, ctx.Rank())}
		f := factor(comm, in)
		if ctx.Rank() == 0 {
			mu.Lock()
			r = f.R
			mu.Unlock()
		}
	})
	lapack.NormalizeRSigns(r, nil)
	return r, w, global
}

// TestPDGEQR2PropertySuite sweeps the shared testmat input classes
// through the distributed factorization: full-rank classes must
// reproduce the sequential R (relative tolerance, so extreme scales
// count), rank-deficient ones must preserve ‖A‖ in R.
func TestPDGEQR2PropertySuite(t *testing.T) {
	const m, n, p = 72, 6, 4
	for _, tc := range testmat.Suite() {
		t.Run(tc.Name, func(t *testing.T) {
			global := tc.Gen(m, n, 33)
			offsets := BlockOffsets(m, p)
			w := mpi.NewWorld(grid.SmallTestGrid(1, p, 1))
			var mu sync.Mutex
			var r *matrix.Dense
			w.Run(func(ctx *mpi.Ctx) {
				comm := mpi.WorldComm(ctx)
				in := Input{M: m, N: n, Offsets: offsets, Local: Distribute(global, offsets, ctx.Rank())}
				f := PDGEQR2(comm, in)
				if ctx.Rank() == 0 {
					mu.Lock()
					r = f.R
					mu.Unlock()
				}
			})
			lapack.NormalizeRSigns(r, nil)
			scale := matrix.NormFrob(global)
			if tc.RankDeficient {
				if d := math.Abs(matrix.NormFrob(r) - scale); d > 1e-11*scale {
					t.Fatalf("‖R‖ drifted from ‖A‖ by %g", d)
				}
				return
			}
			if !matrix.Equal(r, seqR(global), 1e-11*scale) {
				t.Fatalf("R differs from sequential reference beyond 1e-11·‖A‖")
			}
		})
	}
}

// seqR computes the reference R via sequential LAPACK.
func seqR(global *matrix.Dense) *matrix.Dense {
	f := global.Clone()
	tau := make([]float64, f.Cols)
	lapack.Dgeqrf(f, tau, 0)
	r := lapack.TriuCopy(f).View(0, 0, f.Cols, f.Cols).Clone()
	lapack.NormalizeRSigns(r, nil)
	return r
}

func TestPDGEQR2MatchesSequential(t *testing.T) {
	for _, tc := range []struct{ m, n, p int }{
		{60, 5, 1}, {60, 5, 4}, {64, 8, 8}, {100, 12, 3}, {33, 4, 7},
	} {
		r, _, global := runDistributedQR(t, tc.m, tc.n, tc.p, 42, PDGEQR2)
		want := seqR(global)
		if !matrix.Equal(r, want, 1e-10) {
			t.Fatalf("m=%d n=%d p=%d: distributed R differs from sequential", tc.m, tc.n, tc.p)
		}
	}
}

func TestPDGEQR2RowsNotCoveredByRank0(t *testing.T) {
	// n exceeds rank 0's block: R rows must be gathered from other ranks.
	m, n, p := 12, 6, 4 // rank blocks of 3 rows < n
	r, _, global := runDistributedQR(t, m, n, p, 7, PDGEQR2)
	want := seqR(global)
	if !matrix.Equal(r, want, 1e-10) {
		t.Fatal("R gather across ranks broken")
	}
}

func TestPDGEQRFMatchesSequential(t *testing.T) {
	for _, tc := range []struct{ m, n, p, nb, nx int }{
		{120, 24, 4, 4, 8},
		{120, 40, 4, 8, 8},
		{90, 30, 3, 5, 100}, // nx large: falls back to pure QR2
		{64, 32, 8, 8, 1},
	} {
		factor := func(c *mpi.Comm, in Input) *Factorization { return PDGEQRF(c, in, tc.nb, tc.nx) }
		r, _, global := runDistributedQR(t, tc.m, tc.n, tc.p, 11, factor)
		want := seqR(global)
		if !matrix.Equal(r, want, 1e-9) {
			t.Fatalf("%+v: blocked distributed R differs from sequential", tc)
		}
	}
}

func TestPDGEQR2SingleRank(t *testing.T) {
	r, _, global := runDistributedQR(t, 50, 6, 1, 3, PDGEQR2)
	want := seqR(global)
	if !matrix.Equal(r, want, 1e-11) {
		t.Fatal("single-rank PDGEQR2 differs from sequential")
	}
}

func TestPDGEQR2MessageCountModel(t *testing.T) {
	// Table I: ScaLAPACK QR2 sends ~2N·log₂(P) messages (counting one
	// allreduce as 2·log₂P point-to-point messages on the binomial
	// tree's critical path; total messages per allreduce is 2(P−1)).
	m, n, p := 256, 8, 8
	_, w, _ := runDistributedQR(t, m, n, p, 5, PDGEQR2)
	total := w.Counters().Total().Msgs
	// 2N−1 allreduces (no update reduction for the last column), each
	// costing 2(P−1) messages, plus (N·(P−1) at most) for the R gather
	// — rank 0 holds all of R here, so no gather traffic.
	want := int64((2*n - 1) * 2 * (p - 1))
	if total != want {
		t.Fatalf("total messages = %d want %d", total, want)
	}
}

// TestExtractRCostOnlyMatchesData: when R's rows span ranks, ExtractR
// ships each owner's packed rows to rank 0 on both worlds — a cost-only
// world as sized nil payloads — so every rank ends at the same clock
// with the same traffic. Three rows per rank under 16 columns put R on
// ranks 0–5, across both sites.
func TestExtractRCostOnlyMatchesData(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	m, n := 24, 16
	offsets := BlockOffsets(m, g.Procs())
	global := matrix.Random(m, n, 13)
	type end struct {
		clock  float64
		counts mpi.CounterSnapshot
	}
	run := func(opt mpi.Option) []end {
		ends := make([]end, g.Procs())
		mpi.NewWorld(g, opt).Run(func(ctx *mpi.Ctx) {
			in := Input{M: m, N: n, Offsets: offsets}
			if ctx.HasData() {
				in.Local = Distribute(global, offsets, ctx.Rank())
			}
			PDGEQR2(mpi.WorldComm(ctx), in)
			ends[ctx.Rank()] = end{ctx.Now(), ctx.LocalCounters()}
		})
		return ends
	}
	data, cost := run(mpi.Virtual()), run(mpi.CostOnly())
	for r := range data {
		if data[r] != cost[r] {
			t.Errorf("rank %d: data %+v, cost-only %+v", r, data[r], cost[r])
		}
	}
	// 2(p−1) messages per allreduce, 2N−1 allreduces, and one packed
	// R message from each of ranks 1–5.
	var msgs int64
	for _, e := range cost {
		msgs += e.counts.Total().Msgs
	}
	if want := int64((2*n-1)*2*(g.Procs()-1) + 5); msgs != want {
		t.Errorf("cost-only PDGEQR2 sent %d messages, want %d", msgs, want)
	}
}

func TestPDGEQR2CostOnlyMatchesDataMode(t *testing.T) {
	// The same run in cost-only mode must produce identical message
	// counts and virtual time as data mode (virtual).
	m, n, p := 512, 16, 8
	offsets := BlockOffsets(m, p)
	g := grid.SmallTestGrid(2, 2, 2)
	run := func(costOnly bool) (int64, float64, float64) {
		var opts []mpi.Option
		if costOnly {
			opts = append(opts, mpi.CostOnly())
		} else {
			opts = append(opts, mpi.Virtual())
		}
		w := mpi.NewWorld(g, opts...)
		global := matrix.Random(m, n, 9)
		w.Run(func(ctx *mpi.Ctx) {
			comm := mpi.WorldComm(ctx)
			in := Input{M: m, N: n, Offsets: offsets}
			if ctx.HasData() {
				in.Local = Distribute(global, offsets, ctx.Rank())
			}
			PDGEQR2(comm, in)
		})
		c := w.Counters()
		return c.Total().Msgs, c.Flops, w.MaxClock()
	}
	msgsData, flopsData, timeData := run(false)
	msgsCost, flopsCost, timeCost := run(true)
	// Rank 0's block covers all of R here (m/p = 64 >= n), so the R
	// gather moves no messages and the counts must match exactly.
	if msgsData != msgsCost {
		t.Fatalf("messages: data %d vs cost-only %d", msgsData, msgsCost)
	}
	if flopsData != flopsCost {
		t.Fatalf("flops: data %g vs cost-only %g", flopsData, flopsCost)
	}
	if math.Abs(timeData-timeCost) > 1e-9*timeData {
		t.Fatalf("virtual time: data %g vs cost-only %g", timeData, timeCost)
	}
}

func TestPDGEQR2FlopModel(t *testing.T) {
	// Charged flops must track the QR2 model (2MN²−2N³/3) within a few
	// percent for a tall matrix.
	m, n, p := 2048, 16, 4
	_, w, _ := runDistributedQR(t, m, n, p, 13, PDGEQR2)
	got := w.Counters().Flops
	want := flops.GEQRF(m, n)
	if math.Abs(got-want)/want > 0.25 {
		t.Fatalf("charged flops %g vs model %g", got, want)
	}
}

func TestPDORG2RExplicitQ(t *testing.T) {
	m, n, p := 80, 10, 4
	global := matrix.Random(m, n, 21)
	offsets := BlockOffsets(m, p)
	w := mpi.NewWorld(grid.SmallTestGrid(1, p, 1))
	var mu sync.Mutex
	var q, r *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: Distribute(global, offsets, ctx.Rank())}
		f := PDGEQR2(comm, in)
		qloc := PDORG2R(comm, f)
		qfull := Collect(comm, qloc, offsets, n)
		if ctx.Rank() == 0 {
			mu.Lock()
			q, r = qfull, f.R
			mu.Unlock()
		}
	})
	if e := matrix.OrthoError(q); e > 1e-12*float64(m) {
		t.Fatalf("distributed Q orthogonality %g", e)
	}
	if res := matrix.ResidualQR(global, q, r); res > 1e-12*float64(m) {
		t.Fatalf("distributed QR residual %g", res)
	}
}

func TestPDORG2RDoublesCosts(t *testing.T) {
	// Property 1 / Table II: computing Q and R costs about twice R only.
	m, n, p := 1024, 32, 4
	offsets := BlockOffsets(m, p)
	g := grid.SmallTestGrid(1, p, 1)
	run := func(wantQ bool) (int64, float64) {
		w := mpi.NewWorld(g, mpi.CostOnly())
		w.Run(func(ctx *mpi.Ctx) {
			comm := mpi.WorldComm(ctx)
			f := PDGEQR2(comm, Input{M: m, N: n, Offsets: offsets})
			if wantQ {
				PDORG2R(comm, f)
			}
		})
		return w.Counters().Total().Msgs, w.Counters().Flops
	}
	msgsR, flopsR := run(false)
	msgsQR, flopsQR := run(true)
	if ratio := float64(msgsQR) / float64(msgsR); ratio < 1.4 || ratio > 1.6 {
		t.Fatalf("message ratio QR/R = %g want ≈1.5 (N vs 2N−1 allreduces)", ratio)
	}
	if ratio := flopsQR / flopsR; ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("flop ratio QR/R = %g want ≈2 (Property 1)", ratio)
	}
}

func TestCollectRoundTrip(t *testing.T) {
	m, n, p := 20, 3, 4
	global := matrix.Random(m, n, 31)
	offsets := BlockOffsets(m, p)
	w := mpi.NewWorld(grid.SmallTestGrid(1, p, 1))
	var mu sync.Mutex
	var got *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		local := Distribute(global, offsets, ctx.Rank())
		out := Collect(comm, local, offsets, n)
		if ctx.Rank() == 0 {
			mu.Lock()
			got = out
			mu.Unlock()
		}
	})
	if !matrix.Equal(got, global, 0) {
		t.Fatal("Collect(Distribute) != identity")
	}
}
