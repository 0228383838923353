package bench

import (
	"strings"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/mpi"
)

// TestSectionVEBreakdown reproduces the paper's Section V-E observation:
// the communication share of the factorization time shrinks as M grows,
// for both algorithms, and inter-cluster waiting dominates ScaLAPACK's
// time on the grid.
func TestSectionVEBreakdown(t *testing.T) {
	g := grid.Grid5000()
	rows := TimeBreakdownSweep(g, 64, []int{1 << 17, 1 << 21, 1 << 25})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	tsqr, sl := rows[:3], rows[3:]
	// Communication share strictly decreasing with M for both.
	for name, rs := range map[string][]BreakdownRow{"TSQR": tsqr, "ScaLAPACK": sl} {
		for i := 1; i < len(rs); i++ {
			if rs[i].CommShare() >= rs[i-1].CommShare() {
				t.Fatalf("%s: comm share not decreasing at M=%d: %g >= %g",
					name, rs[i].M, rs[i].CommShare(), rs[i-1].CommShare())
			}
		}
	}
	// TSQR at the top of the sweep is compute-bound (>95%).
	if tsqr[2].ComputeFrac < 0.95 {
		t.Fatalf("TSQR at M=2^25 compute fraction %g, want > 0.95", tsqr[2].ComputeFrac)
	}
	// ScaLAPACK on the grid is dominated by inter-cluster waiting for
	// small and moderate M.
	if sl[0].InterCluster < 0.5 {
		t.Fatalf("ScaLAPACK at M=2^17: inter-cluster share %g, want dominant", sl[0].InterCluster)
	}
	// Fractions are a sane partition of time.
	for _, r := range rows {
		sum := r.ComputeFrac + r.CommShare()
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("fractions sum to %g at M=%d", sum, r.M)
		}
	}
}

func TestFormatBreakdown(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	rows := TimeBreakdownSweep(g, 8, []int{1 << 10})
	out := FormatBreakdown(8, rows)
	for _, want := range []string{"TSQR", "ScaLAPACK", "inter-clstr", "%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWeakScaling(t *testing.T) {
	g := grid.Grid5000()
	tsqr := WeakScaling(g, TSQR, 1<<17, 64)
	if len(tsqr) != 4 {
		t.Fatalf("rows = %d", len(tsqr))
	}
	// TSQR weak-scales: efficiency stays high at 4 sites.
	if e := tsqr[3].Efficiency; e < 0.85 {
		t.Fatalf("TSQR weak-scaling efficiency at 4 sites = %g, want > 0.85", e)
	}
	// ScaLAPACK's collapses (per-column wide-area reductions).
	sl := WeakScaling(g, ScaLAPACK, 1<<17, 64)
	if sl[3].Efficiency >= tsqr[3].Efficiency/2 {
		t.Fatalf("ScaLAPACK weak efficiency %g should be far below TSQR's %g",
			sl[3].Efficiency, tsqr[3].Efficiency)
	}
	// Total rows must grow with the machine.
	if tsqr[3].M != 4*tsqr[0].M {
		t.Fatalf("M did not grow with sites: %v", tsqr)
	}
}

func TestFormatWeakScaling(t *testing.T) {
	out := FormatWeakScaling(grid.SmallTestGrid(2, 2, 1), 1<<12, 8)
	for _, want := range []string{"Weak scaling", "TSQR", "ScaLAPACK", "efficiency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestStragglerStudy(t *testing.T) {
	g := grid.Grid5000()
	rows := StragglerStudy(g, 1<<22, 64, []float64{2, 8})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Both synchronous algorithms are hostage to the straggler, but
		// inflation must stay bounded by the slowdown itself and must
		// increase with it.
		if r.TSQRInfl < 1 || r.TSQRInfl > r.Factor+0.5 {
			t.Fatalf("TSQR inflation %g out of range for factor %g", r.TSQRInfl, r.Factor)
		}
		if r.SLInfl < 1 || r.SLInfl > r.Factor+0.5 {
			t.Fatalf("ScaLAPACK inflation %g out of range for factor %g", r.SLInfl, r.Factor)
		}
	}
	if rows[1].TSQRInfl <= rows[0].TSQRInfl {
		t.Fatal("inflation must grow with the slowdown")
	}
	// ScaLAPACK's grid runs are latency-bound, so a compute straggler
	// hurts it relatively less than compute-bound TSQR — the flip side
	// of its poor baseline.
	if rows[1].SLInfl > rows[1].TSQRInfl {
		t.Fatalf("unexpected ordering: SL %g vs TSQR %g", rows[1].SLInfl, rows[1].TSQRInfl)
	}
}

func TestSlowdownOption(t *testing.T) {
	g := grid.SmallTestGrid(1, 2, 1)
	run := func(opts ...mpi.Option) float64 {
		w := mpi.NewWorld(g, append([]mpi.Option{mpi.CostOnly()}, opts...)...)
		w.Run(func(ctx *mpi.Ctx) {
			ctx.Kernel("compute", 1e9, 64, nil)
		})
		return w.MaxClock()
	}
	base := run()
	slowed := run(mpi.Slowdown(1, 3))
	if r := slowed / base; r < 2.9 || r > 3.1 {
		t.Fatalf("slowdown ratio %g want 3", r)
	}
}

func TestCheckModel(t *testing.T) {
	if testing.Short() {
		t.Skip("model sweep skipped in -short mode")
	}
	rows := CheckModel(grid.Grid5000())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Points != 18 {
			t.Fatalf("%v: points = %d want 18", r.Algo, r.Points)
		}
		// The model's purpose is trend forecasting; it should track the
		// simulator within tens of percent on average.
		if r.MeanErr > 0.5 {
			t.Fatalf("%v: mean model error %.0f%% too large", r.Algo, 100*r.MeanErr)
		}
	}
	out := FormatModelCheck(rows)
	if !strings.Contains(out, "mean err") {
		t.Fatalf("bad render:\n%s", out)
	}
}

func TestCrossoverM(t *testing.T) {
	g := grid.Grid5000()
	// ScaLAPACK's multi-site crossover: the paper reports M ≈ 5·10⁶–10⁷
	// (single site optimal below, grid wins above). Our simulation puts
	// it in the same decade.
	m, ok := CrossoverM(g, ScaLAPACK, 64, 1<<17, 1<<26)
	if !ok {
		t.Fatal("no ScaLAPACK crossover found in range")
	}
	if m < 4_000_000 || m > 30_000_000 {
		t.Fatalf("ScaLAPACK crossover M = %d outside the paper's decade", m)
	}
	// TSQR crosses over far earlier (paper: M ≥ 5·10⁵ already favors
	// all four sites).
	mt, ok := CrossoverM(g, TSQR, 64, 1<<14, 1<<22)
	if !ok {
		t.Fatal("no TSQR crossover found in range")
	}
	if mt >= m/8 {
		t.Fatalf("TSQR crossover %d not far below ScaLAPACK's %d", mt, m)
	}
}
