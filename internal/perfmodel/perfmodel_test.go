package perfmodel

import (
	"math"
	"testing"

	"gridqr/internal/grid"
)

func TestTableIRows(t *testing.T) {
	m, n, p := 1<<20, 64, 16
	qr2 := ScaLAPACKR(m, n, p)
	tsqr := TSQRR(m, n, p)
	// #msg: 2N·log₂P vs log₂P — ratio 2N.
	if got := qr2.Msgs / tsqr.Msgs; got != float64(2*n) {
		t.Fatalf("message ratio = %g want %d", got, 2*n)
	}
	// Volume identical.
	if qr2.Volume != tsqr.Volume {
		t.Fatalf("volumes differ: %g vs %g", qr2.Volume, tsqr.Volume)
	}
	// TSQR pays the extra 2/3·log₂(P)·N³ flops.
	extra := tsqr.Flops - qr2.Flops
	want := 2.0 / 3.0 * 4 * float64(n) * float64(n) * float64(n) // log2(16)=4
	if math.Abs(extra-want)/want > 1e-12 {
		t.Fatalf("extra flops = %g want %g", extra, want)
	}
}

func TestTableIIDoubles(t *testing.T) {
	m, n, p := 1<<18, 128, 8
	for _, pair := range [][2]Breakdown{
		{ScaLAPACKR(m, n, p), ScaLAPACKQR(m, n, p)},
		{TSQRR(m, n, p), TSQRQR(m, n, p)},
	} {
		r, qr := pair[0], pair[1]
		if qr.Msgs != 2*r.Msgs || qr.Volume != 2*r.Volume || qr.Flops != 2*r.Flops {
			t.Fatalf("Table II row is not double of Table I: %+v vs %+v", r, qr)
		}
	}
}

func TestGflops(t *testing.T) {
	m, n := 1<<20, 64
	g := Gflops(m, n, false, 1.0)
	want := (2*float64(m)*64*64 - 2.0/3.0*64*64*64) / 1e9
	if math.Abs(g-want)/want > 1e-12 {
		t.Fatalf("Gflops = %g want %g", g, want)
	}
	if q := Gflops(m, n, true, 2.0); math.Abs(q-g)/g > 1e-12 {
		t.Fatalf("Q+R in 2× time must equal R-only rate: %g vs %g", q, g)
	}
}

func TestProperty1QRTwiceR(t *testing.T) {
	p := Predictor{G: grid.Grid5000(), Sites: 4}
	r := p.TSQRTime(1<<22, 64, false)
	qr := p.TSQRTime(1<<22, 64, true)
	if math.Abs(qr/r-2) > 1e-12 {
		t.Fatalf("Q+R / R time ratio = %g want 2", qr/r)
	}
}

func TestProperty2DomanialBound(t *testing.T) {
	// Predicted performance never exceeds procs × kernel rate.
	g := grid.Grid5000()
	p := Predictor{G: g, Sites: 4}
	for _, n := range []int{64, 512} {
		m := 1 << 23
		perf := Gflops(m, n, false, p.TSQRTime(m, n, false))
		bound := 256 * g.KernelGflops(0, n)
		if perf > bound {
			t.Fatalf("N=%d: predicted %g Gflop/s above domanial bound %g", n, perf, bound)
		}
	}
}

func TestProperty3PerfIncreasesWithM(t *testing.T) {
	p := Predictor{G: grid.Grid5000(), Sites: 4}
	prev := 0.0
	for _, m := range []int{1 << 17, 1 << 19, 1 << 21, 1 << 23, 1 << 25} {
		perf := Gflops(m, 64, false, p.TSQRTime(m, 64, false))
		if perf <= prev {
			t.Fatalf("performance not increasing with M at m=%d: %g <= %g", m, perf, prev)
		}
		prev = perf
	}
}

func TestProperty4PerfIncreasesWithN(t *testing.T) {
	p := Predictor{G: grid.Grid5000(), Sites: 4}
	prev := 0.0
	for _, n := range []int{16, 64, 128, 256} {
		perf := Gflops(1<<23, n, false, p.TSQRTime(1<<23, n, false))
		if perf <= prev {
			t.Fatalf("performance not increasing with N at n=%d: %g <= %g", n, perf, prev)
		}
		prev = perf
	}
}

func TestProperty5TSQRBeatsQR2MidRange(t *testing.T) {
	p := Predictor{G: grid.Grid5000(), Sites: 4}
	// Mid-range N: TSQR wins.
	for _, n := range []int{64, 128, 256, 512} {
		m := 1 << 22
		ts := p.TSQRTime(m, n, false)
		sc := p.ScaLAPACKTime(m, n, false)
		if ts >= sc {
			t.Fatalf("N=%d: TSQR (%g s) not faster than ScaLAPACK (%g s)", n, ts, sc)
		}
	}
}

func TestProperty5LargeNAdvantageShrinks(t *testing.T) {
	// As N grows with M fixed, TSQR's advantage factor must shrink
	// (the extra 2/3·log₂(P)·N³ flops bite; paper: switch to CAQR).
	p := Predictor{G: grid.Grid5000(), Sites: 4}
	m := 1 << 22
	prevAdvantage := math.Inf(1)
	for _, n := range []int{64, 256, 1024, 4096} {
		adv := p.ScaLAPACKTime(m, n, false) / p.TSQRTime(m, n, false)
		if adv >= prevAdvantage {
			t.Fatalf("advantage not shrinking at N=%d: %g >= %g", n, adv, prevAdvantage)
		}
		prevAdvantage = adv
	}
}

func TestPredictorSitesScaling(t *testing.T) {
	// For a very tall matrix, TSQR on 4 sites must be meaningfully
	// faster than on 1 site (the paper's headline claim); ScaLAPACK on
	// a short matrix must be slower on 4 sites than on 1 (the
	// established negative result).
	g := grid.Grid5000()
	tall := 1 << 25
	t4 := Predictor{G: g, Sites: 4}.TSQRTime(tall, 64, false)
	t1 := Predictor{G: g, Sites: 1}.TSQRTime(tall, 64, false)
	if sp := t1 / t4; sp < 2.5 {
		t.Fatalf("TSQR speedup on 4 sites = %g, want near-linear", sp)
	}
	short := 1 << 17
	s4 := Predictor{G: g, Sites: 4}.ScaLAPACKTime(short, 64, false)
	s1 := Predictor{G: g, Sites: 1}.ScaLAPACKTime(short, 64, false)
	if s4 < s1 {
		t.Fatalf("ScaLAPACK on a short matrix should slow down across sites: %g < %g", s4, s1)
	}
}

func TestPredictorDefaults(t *testing.T) {
	g := grid.Grid5000()
	p := Predictor{G: g} // Sites=0 → all clusters
	if p.sites() != 4 || p.procs() != 256 {
		t.Fatalf("defaults: sites=%d procs=%d", p.sites(), p.procs())
	}
	single := Predictor{G: g, Sites: 1}
	intra, inter := single.links()
	if intra != inter {
		t.Fatal("single site must use intra link for both tiers")
	}
}

func TestUsefulFlops(t *testing.T) {
	if UsefulFlops(100, 10, true) != 2*UsefulFlops(100, 10, false) {
		t.Fatal("Q+R useful flops must double")
	}
}

func TestStreamSnapshotExact(t *testing.T) {
	// A stream snapshot is one TSQR reduction over the per-rank running
	// R's: folds move no bytes, so the per-snapshot traffic is exactly
	// the TSQR combine tree's — p-1 messages, one packed triangle each.
	for _, tc := range []struct{ n, p int }{{4, 1}, {16, 8}, {32, 12}} {
		got := StreamSnapshotExact(tc.n, tc.p)
		want := TSQRExactTotals(tc.n, tc.p)
		if got != want {
			t.Fatalf("n=%d p=%d: %+v want %+v", tc.n, tc.p, got, want)
		}
		if got.Msgs != float64(tc.p-1) {
			t.Fatalf("n=%d p=%d: msgs %g want %d", tc.n, tc.p, got.Msgs, tc.p-1)
		}
		tri := 8 * float64(tc.n*(tc.n+1)/2)
		if got.Volume != got.Msgs*tri {
			t.Fatalf("n=%d p=%d: volume %g want %g", tc.n, tc.p, got.Volume, got.Msgs*tri)
		}
	}
}
