package flops

import (
	"math"
	"testing"
)

func TestGEQRFLeadingTerm(t *testing.T) {
	// For m >> n the count is ~2mn².
	got := GEQRF(1_000_000, 64)
	want := 2 * 1e6 * 64 * 64
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("GEQRF tall = %g want ≈ %g", got, want)
	}
}

func TestGEQRFSquare(t *testing.T) {
	n := 100
	got := GEQRF(n, n)
	want := 4.0 / 3.0 * float64(n*n*n)
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("GEQRF square = %g want %g", got, want)
	}
}

func TestStackQR(t *testing.T) {
	if got := StackQR(64); got != 2.0/3.0*64*64*64 {
		t.Fatalf("StackQR = %g", got)
	}
	if StackQRApplyQ(64) != StackQR(64) {
		t.Fatal("apply cost must equal factor cost")
	}
}

// tpqrt2Sum is the definition-level count of Dtpqrt2: the per-column sum
// the closed form in TPQRT2 collapses.
func tpqrt2Sum(n int) float64 {
	var f float64
	for j := 0; j < n; j++ {
		f += 3*float64(j+1) + 3 + float64(n-1-j)*(4*float64(j+1)+2)
	}
	return f
}

func TestTPQRT2ExactCount(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 8, 17, 64, 129, 1024} {
		if got, want := TPQRT2(n), tpqrt2Sum(n); math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("TPQRT2(%d) = %g want %g", n, got, want)
		}
	}
	// The exact count approaches the asymptotic 2n³/3 model from above.
	for _, n := range []int{64, 256, 1024} {
		ratio := TPQRT2(n) / StackQR(n)
		if ratio < 1 || ratio > 1.2 {
			t.Fatalf("TPQRT2(%d)/StackQR = %g, want in (1, 1.2]", n, ratio)
		}
	}
	if TPQRT2(4096)/StackQR(4096) > 1.01 {
		t.Fatal("TPQRT2 must converge to 2n³/3")
	}
}

func TestGEMM(t *testing.T) {
	if GEMM(2, 3, 4) != 48 {
		t.Fatalf("GEMM = %g want 48", GEMM(2, 3, 4))
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]float64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6}
	for p, want := range cases {
		if got := Log2(p); got != want {
			t.Fatalf("Log2(%d) = %g want %g", p, got, want)
		}
	}
}

func TestLog2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Log2(0)
}

func TestTSQRCriticalTableI(t *testing.T) {
	// Table I: TSQR = (2MN² − 2N³/3)/P + 2/3·log₂(P)·N³.
	m, n, p := 1<<20, 64, 16
	got := TSQRCritical(m, n, p)
	want := GEQRF(m, n)/float64(p) + 2.0/3.0*Log2(p)*float64(n*n*n)
	if math.Abs(got-want) > 1 {
		t.Fatalf("TSQRCritical = %g want %g", got, want)
	}
	if QR2Critical(m, n, p) >= got {
		t.Fatal("QR2 critical path must be below TSQR's (TSQR trades flops for messages)")
	}
}

func TestTriangularCounts(t *testing.T) {
	// TRMM against a hand count for n=3, m=2: each of the m vectors hits
	// the triangle with n(n+1)/2 = 6 multiplies and n(n−1)/2 = 3 adds.
	if got := TRMM(3, 2, false); got != 18 {
		t.Fatalf("TRMM(3,2) = %g want 18", got)
	}
	// Unit diagonal drops the n diagonal multiplies per vector.
	if got := TRMM(3, 2, true); got != 12 {
		t.Fatalf("TRMM(3,2,unit) = %g want 12", got)
	}
	// Degenerate orders.
	if TRMM(1, 1, false) != 1 || TRMM(1, 1, true) != 0 || TRMM(0, 5, false) != 0 {
		t.Fatal("TRMM degenerate cases wrong")
	}
	// Substitution costs the same n² total per vector as the multiply
	// (n(n−1) products/updates plus n divides).
	for _, n := range []int{1, 2, 7, 64} {
		for _, unit := range []bool{false, true} {
			if TRSM(n, 3, unit) != TRMM(n, 3, unit) {
				t.Fatalf("TRSM(%d) must equal TRMM", n)
			}
		}
	}
}

func TestAuxiliaryCounts(t *testing.T) {
	if ORGQR(100, 10) != GEQRF(100, 10) {
		t.Fatal("ORGQR must match GEQRF to leading order")
	}
	// GETF2: mn² − n³/3.
	if got, want := GETF2(30, 10), 30.0*100-1000.0/3; math.Abs(got-want) > 1e-9 {
		t.Fatalf("GETF2 = %g want %g", got, want)
	}
	// ORMQR: 4mnk − 2nk².
	if got, want := ORMQR(20, 5, 4), 4.0*20*5*4-2.0*5*16; got != want {
		t.Fatalf("ORMQR = %g want %g", got, want)
	}
	// StackApply: 2n²·cols.
	if got := StackApply(8, 3); got != 2*64*3 {
		t.Fatalf("StackApply = %g", got)
	}
	// GEQRF wide case is symmetric in the roles (compare with
	// tolerance: association order of the 2/3 term differs).
	if got, want := GEQRF(10, 30), 2*30.0*100-2.0/3*1000; math.Abs(got-want) > 1e-9 {
		t.Fatalf("GEQRF wide = %g want %g", got, want)
	}
}
