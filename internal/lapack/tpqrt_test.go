package lapack

import (
	"math"
	"testing"
	"testing/quick"

	"gridqr/internal/blas"
	"gridqr/internal/flops"
	"gridqr/internal/matrix"
	"gridqr/internal/telemetry"
)

// randTriu returns a random n×n upper triangular matrix.
func randTriu(n int, seed int64) *matrix.Dense {
	a := matrix.Random(n, n, seed)
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			a.Set(i, j, 0)
		}
	}
	return a
}

// denseStackR computes the reference R of [r1; r2] via dense QR.
func denseStackR(r1, r2 *matrix.Dense) *matrix.Dense {
	s := matrix.Stack(r1, r2)
	tau := make([]float64, s.Cols)
	Dgeqr2(s, tau)
	r := TriuCopy(s).View(0, 0, s.Cols, s.Cols).Clone()
	NormalizeRSigns(r, nil)
	return r
}

func TestDtpqrt2MatchesDenseQR(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17, 33} {
		r1 := randTriu(n, int64(n))
		r2 := randTriu(n, int64(n)+100)
		r, _, _ := StackQR(r1, r2)
		NormalizeRSigns(r, nil)
		want := denseStackR(r1, r2)
		if !matrix.Equal(r, want, 1e-11*float64(n)) {
			t.Fatalf("n=%d: structured R differs from dense R", n)
		}
	}
}

func TestStackQRPreservesInputs(t *testing.T) {
	r1 := randTriu(5, 1)
	r2 := randTriu(5, 2)
	c1, c2 := r1.Clone(), r2.Clone()
	StackQR(r1, r2)
	if !matrix.Equal(r1, c1, 0) || !matrix.Equal(r2, c2, 0) {
		t.Fatal("StackQR modified its inputs")
	}
}

func TestStackQRUpperTriangularOutputs(t *testing.T) {
	r, v, tau := StackQR(randTriu(6, 3), randTriu(6, 4))
	if !matrix.IsUpperTriangular(r, 0) {
		t.Fatal("R not upper triangular")
	}
	if !matrix.IsUpperTriangular(v, 0) {
		t.Fatal("V lost its upper triangular structure")
	}
	if len(tau) != 6 {
		t.Fatalf("tau length %d", len(tau))
	}
}

func TestApplyStackQReconstructs(t *testing.T) {
	// Q·[R; 0] must reconstruct [R1; R2].
	n := 9
	r1 := randTriu(n, 5)
	r2 := randTriu(n, 6)
	r, v, tau := StackQR(r1, r2)
	c1 := r.Clone()
	c2 := matrix.New(n, n)
	ApplyStackQ(v, tau, false, c1, c2)
	if !matrix.Equal(c1, r1, 1e-12) {
		t.Fatalf("top block not reconstructed:\n%v\nvs\n%v", c1, r1)
	}
	if !matrix.Equal(c2, r2, 1e-12) {
		t.Fatal("bottom block not reconstructed")
	}
}

func TestApplyStackQOrthogonality(t *testing.T) {
	// Qᵀ·Q = I: apply Qᵀ then Q to a random stacked pair.
	n, p := 7, 4
	_, v, tau := StackQR(randTriu(n, 7), randTriu(n, 8))
	c1 := matrix.Random(n, p, 9)
	c2 := matrix.Random(n, p, 10)
	o1, o2 := c1.Clone(), c2.Clone()
	ApplyStackQ(v, tau, true, c1, c2)
	ApplyStackQ(v, tau, false, c1, c2)
	if !matrix.Equal(c1, o1, 1e-12) || !matrix.Equal(c2, o2, 1e-12) {
		t.Fatal("Q·Qᵀ != I")
	}
}

func TestApplyStackQTransposeZeroesBottom(t *testing.T) {
	// Qᵀ·[R1; R2] = [R; 0].
	n := 6
	r1 := randTriu(n, 11)
	r2 := randTriu(n, 12)
	r, v, tau := StackQR(r1, r2)
	c1 := r1.Clone()
	c2 := r2.Clone()
	ApplyStackQ(v, tau, true, c1, c2)
	if !matrix.Equal(c1, r, 1e-12) {
		t.Fatal("Qᵀ·stack top != R")
	}
	if matrix.NormMax(c2) > 1e-12 {
		t.Fatalf("Qᵀ·stack bottom not zero: %g", matrix.NormMax(c2))
	}
}

func TestDtpqrt2Identity(t *testing.T) {
	// Stacking R on a zero matrix must give back R (tau all zero).
	n := 5
	r1 := randTriu(n, 13)
	r2 := matrix.New(n, n)
	r, _, tau := StackQR(r1, r2)
	// R may differ by signs only when diagonal negative; with zero
	// bottom, Dlarfg returns tau=0 and leaves alpha untouched.
	for j, tv := range tau {
		if tv != 0 {
			t.Fatalf("tau[%d] = %g, want 0 for zero bottom block", j, tv)
		}
	}
	if !matrix.Equal(r, r1, 0) {
		t.Fatal("stack with zero bottom changed R")
	}
}

// Property: associativity of the reduction operation. Reducing
// (R1 ⊕ R2) ⊕ R3 and R1 ⊕ (R2 ⊕ R3) must give the same R after sign
// normalization — the property that makes TSQR tree shape a pure
// performance choice.
func TestStackQRAssociative(t *testing.T) {
	f := func(seed int64) bool {
		n := 6
		r1 := randTriu(n, seed)
		r2 := randTriu(n, seed+1)
		r3 := randTriu(n, seed+2)
		r12, _, _ := StackQR(r1, r2)
		left, _, _ := StackQR(r12, r3)
		r23, _, _ := StackQR(r2, r3)
		right, _, _ := StackQR(r1, r23)
		NormalizeRSigns(left, nil)
		NormalizeRSigns(right, nil)
		return matrix.Equal(left, right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: commutativity after sign normalization, as claimed in the
// paper (Section II-C).
func TestStackQRCommutative(t *testing.T) {
	f := func(seed int64) bool {
		n := 5
		r1 := randTriu(n, seed)
		r2 := randTriu(n, seed+1)
		a, _, _ := StackQR(r1, r2)
		b, _, _ := StackQR(r2, r1)
		NormalizeRSigns(a, nil)
		NormalizeRSigns(b, nil)
		return matrix.Equal(a, b, 1e-11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: Frobenius norm invariance — ‖[R1;R2]‖_F == ‖R‖_F.
func TestStackQRNormInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r1 := randTriu(8, seed)
		r2 := randTriu(8, seed+1)
		r, _, _ := StackQR(r1, r2)
		in := math.Hypot(matrix.NormFrob(r1), matrix.NormFrob(r2))
		return math.Abs(in-matrix.NormFrob(r)) < 1e-11*(1+in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDtpqrt2SizeOne(t *testing.T) {
	r1 := matrix.FromRows([][]float64{{3}})
	r2 := matrix.FromRows([][]float64{{4}})
	r, _, _ := StackQR(r1, r2)
	if math.Abs(math.Abs(r.At(0, 0))-5) > 1e-14 {
		t.Fatalf("1×1 stack: |r| = %g want 5", math.Abs(r.At(0, 0)))
	}
}

func TestDtpqrtMatchesDtpqrt2(t *testing.T) {
	for _, n := range []int{1, 5, 32, 33, 64, 97, 130} {
		for _, nb := range []int{1, 8, 32, 200} {
			r1a := randTriu(n, int64(n))
			r2a := randTriu(n, int64(n)+500)
			f1, f2 := r1a.Clone(), r2a.Clone()
			tauB := make([]float64, n)
			Dtpqrt(f1, f2, tauB, nb)
			g1, g2 := r1a.Clone(), r2a.Clone()
			tauU := make([]float64, n)
			Dtpqrt2(g1, g2, tauU)
			// The blocked and unblocked algorithms perform the same
			// reflections: identical V, tau and R up to roundoff.
			for j := 0; j < n; j++ {
				if math.Abs(tauB[j]-tauU[j]) > 1e-12 {
					t.Fatalf("n=%d nb=%d: tau[%d] %g vs %g", n, nb, j, tauB[j], tauU[j])
				}
			}
			if !matrix.Equal(f2, g2, 1e-11) {
				t.Fatalf("n=%d nb=%d: V differs", n, nb)
			}
			for j := 0; j < n; j++ {
				for i := 0; i <= j; i++ {
					if math.Abs(f1.At(i, j)-g1.At(i, j)) > 1e-10 {
						t.Fatalf("n=%d nb=%d: R differs at (%d,%d)", n, nb, i, j)
					}
				}
			}
		}
	}
}

func TestDtpqrtApplyStackQCompatible(t *testing.T) {
	// ApplyStackQ on a blocked factorization must reconstruct the stack.
	n := 100
	r1 := randTriu(n, 7)
	r2 := randTriu(n, 8)
	r := r1.Clone()
	v := r2.Clone()
	tau := make([]float64, n)
	Dtpqrt(r, v, tau, 32)
	for j := 0; j < n; j++ { // clear subdiagonal like StackQR does
		for i := j + 1; i < n; i++ {
			r.Set(i, j, 0)
		}
	}
	c1 := r.Clone()
	c2 := matrix.New(n, n)
	ApplyStackQ(v, tau, false, c1, c2)
	if !matrix.Equal(c1, r1, 1e-10) || !matrix.Equal(c2, r2, 1e-10) {
		t.Fatal("blocked StackQR factors do not reconstruct the stack")
	}
}

// refTpqrt2 is the column-pair form of the stacked elimination — one
// Ddot and one Daxpy per pair of columns, the kernel before the sweeps
// were fused — kept as the reference the fused and blocked kernels are
// held to.
func refTpqrt2(r1, r2 *matrix.Dense, tau []float64) {
	n := r1.Rows
	for j := 0; j < n; j++ {
		bj := r2.Col(j)[:j+1]
		beta, t := Dlarfg(r1.At(j, j), bj)
		tau[j] = t
		r1.Set(j, j, beta)
		if t == 0 {
			continue
		}
		for k := j + 1; k < n; k++ {
			ck := r2.Col(k)[:j+1]
			f := t * (r1.At(j, k) + blas.Ddot(bj, ck))
			r1.Set(j, k, r1.At(j, k)-f)
			blas.Daxpy(-f, bj, ck)
		}
	}
}

// TestStackQRKernelsMatchReference: whatever kernel the rule picks for n
// (and each kernel on its own, on both sides of the rule) performs the
// reference's reflections — same R, V and tau to 1e-13 — and its implicit
// Q rebuilds the stacked pair through ApplyStackQ. Orders straddle the
// Dgemv/Dger kernels' four-column blocks, the panel width and the rule.
func TestStackQRKernelsMatchReference(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 48, 64, 65, 127, 128, 129} {
		r1, r2 := randTriu(n, int64(n)), randTriu(n, int64(n)+300)
		wantR, wantV, wantTau := r1.Clone(), r2.Clone(), make([]float64, n)
		refTpqrt2(wantR, wantV, wantTau)
		tol := 1e-13 * matrix.NormFrob(matrix.Stack(r1, r2))
		for _, kc := range []struct {
			name string
			run  func(r, v *matrix.Dense, tau []float64)
		}{
			{"rule", StackQRInPlace},
			{"Dtpqrt2", Dtpqrt2},
			{"Dtpqrt/8", func(r, v *matrix.Dense, tau []float64) { Dtpqrt(r, v, tau, 8) }},
		} {
			r, v, tau := r1.Clone(), r2.Clone(), make([]float64, n)
			kc.run(r, v, tau)
			if !matrix.Equal(r, wantR, tol) || !matrix.Equal(v, wantV, tol) {
				t.Fatalf("n=%d %s: R or V differs from the column-pair reference", n, kc.name)
			}
			for j := range tau {
				if math.Abs(tau[j]-wantTau[j]) > 1e-13 {
					t.Fatalf("n=%d %s: tau[%d] = %g, reference %g", n, kc.name, j, tau[j], wantTau[j])
				}
			}
			c1, c2 := r.Clone(), matrix.New(n, n)
			ApplyStackQ(v, tau, false, c1, c2)
			if !matrix.Equal(c1, r1, 10*tol) || !matrix.Equal(c2, r2, 10*tol) {
				t.Fatalf("n=%d %s: Q·[R; 0] does not rebuild [R1; R2]", n, kc.name)
			}
		}
	}
}

// TestStackQRChargesTheKernelThatRan: the stack_qr telemetry counts the
// flops of the kernel the rule picked — flops.TPQRT2(n) column-wise,
// flops.TPQRT(n, nb) blocked — and the blocked count is checked against
// what actually ran: the Dgemm and Dtrmm calls report their own flops,
// the panel sweeps, the T builds and the C1 subtractions are counted here
// operation by operation.
func TestStackQRChargesTheKernelThatRan(t *testing.T) {
	telemetry.EnableKernelMetrics(true)
	defer telemetry.EnableKernelMetrics(false)
	reg := telemetry.Default()
	counter := func(k string) float64 { return reg.Counter("kernel." + k + ".flops").Value() }
	for _, n := range []int{8, 64, 127, 128, 200} {
		r, v, tau := randTriu(n, 1), randTriu(n, 2), make([]float64, n)
		stack, gemm, trmm := counter("stack_qr"), counter("dgemm"), counter("dtrmm")
		StackQRInPlace(r, v, tau)
		charged := counter("stack_qr") - stack
		nb := stackQRPanel(n)
		if nb == 0 {
			if charged != flops.TPQRT2(n) {
				t.Errorf("n=%d column-wise: charged %g, flops.TPQRT2 = %g", n, charged, flops.TPQRT2(n))
			}
			nb = n
		} else if charged != flops.TPQRT(n, nb) {
			t.Errorf("n=%d nb=%d: charged %g, flops.TPQRT = %g", n, nb, charged, flops.TPQRT(n, nb))
		}
		ran := counter("dgemm") - gemm + counter("dtrmm") - trmm
		for j := 0; j < n; j += nb {
			jb := min(nb, n-j)
			for c := j; c < j+jb; c++ {
				ran += 3 // Dlarfg's beta, tau and scale factor
				for i := 0; i <= c; i++ {
					ran += 3 // its norm (multiply, add) and scaling
				}
				for k := c + 1; k < j+jb; k++ {
					ran += 2 // w_k's head and t·w_k
					for i := 0; i <= c; i++ {
						ran += 4 // Dgemv's and Dger's multiply-adds
					}
				}
			}
			if rest := n - j - jb; rest > 0 {
				for i := 1; i < jb; i++ {
					for c := 0; c < i; c++ {
						ran++ // −tau·dot
						for l := 0; l <= j+i; l++ {
							ran += 2 // the dot down v_c and v_i
						}
					}
					ran += float64(i * i) // Dtrmv on an order-i triangle
				}
				ran += float64(2 * jb * rest) // C1 −= W
			}
		}
		if math.Abs(ran-charged) > 1e-9*charged {
			t.Errorf("n=%d: %g flops ran, %g charged", n, ran, charged)
		}
	}
}

// TestDtpqrt2SmallOrdersKeepTheirBits: up to n = 11 the fused sweep is the
// column-pair reference bit for bit — under eight rows Dgemv's four-column
// kernel reduces its lanes as Ddot does, and under four trailing columns
// Dgemv and Dger are Ddot and Daxpy — so the triangles CAQR's 4-wide
// panels and the pinned FT-TSQR runs (n = 5) merge did not move when the
// sweep was fused. From n = 12 the two differ in the last bits.
func TestDtpqrt2SmallOrdersKeepTheirBits(t *testing.T) {
	for n := 1; n <= 11; n++ {
		for seed := int64(0); seed < 4; seed++ {
			r1, r2 := randTriu(n, seed), randTriu(n, seed+50)
			wantR, wantV, wantTau := r1.Clone(), r2.Clone(), make([]float64, n)
			refTpqrt2(wantR, wantV, wantTau)
			tau := make([]float64, n)
			StackQRInPlace(r1, r2, tau)
			if !bitsEqual(r1, wantR) || !bitsEqual(r2, wantV) ||
				!bitsEqual(matrix.FromColMajor(n, 1, tau), matrix.FromColMajor(n, 1, wantTau)) {
				t.Fatalf("n=%d seed=%d: fused sweep moved the bits of the column-pair kernel", n, seed)
			}
		}
	}
}
