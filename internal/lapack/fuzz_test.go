package lapack

import (
	"math"
	"testing"

	"gridqr/internal/matrix"
	"gridqr/internal/testmat"
)

// FuzzHouseholderQR drives the blocked Householder factorization over
// fuzzed dimensions, input classes and value seeds: for every input the
// factorization must complete without panicking, produce an upper
// triangular R, an orthonormal Q, and reconstruct A — the native-fuzzing
// form of the property suite.
func FuzzHouseholderQR(f *testing.F) {
	f.Add(uint8(8), uint8(3), int64(1), uint8(0), uint8(0))
	f.Add(uint8(64), uint8(16), int64(7), uint8(1), uint8(4))
	f.Add(uint8(1), uint8(1), int64(2), uint8(2), uint8(1))
	f.Add(uint8(20), uint8(2), int64(5), uint8(5), uint8(2))
	f.Add(uint8(9), uint8(16), int64(3), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, mRaw, nRaw uint8, seed int64, class, nbRaw uint8) {
		m := 1 + int(mRaw)%64
		n := 1 + int(nRaw)%16
		nb := int(nbRaw) % 8 // 0 = DefaultBlock
		var a *matrix.Dense
		switch class % 5 {
		case 0:
			a = testmat.WellConditioned(m, n, seed)
		case 1:
			a = testmat.Graded(m, n, seed)
		case 2:
			a = testmat.Huge(m, n, seed)
		case 3:
			a = testmat.Tiny(m, n, seed)
		default:
			a = testmat.RankDeficient(m, n, seed)
		}
		k := min(m, n)
		fm := a.Clone()
		tau := make([]float64, k)
		Dgeqrf(fm, tau, nb)
		r := TriuCopy(fm)
		if !matrix.IsUpperTriangular(r, 0) {
			t.Fatal("R not upper triangular")
		}
		q := Dorgqr(fm, tau, k)
		tol := 1e-12 * float64(m+n)
		if e := matrix.OrthoError(q); e > tol {
			t.Fatalf("m=%d n=%d nb=%d class=%d: orthogonality error %g > %g", m, n, nb, class%5, e, tol)
		}
		rTop := r
		if rTop.Rows > k {
			rTop = rTop.View(0, 0, k, n).Clone()
		}
		if res := matrix.ResidualQR(a, q, rTop); res > tol {
			t.Fatalf("m=%d n=%d nb=%d class=%d: residual %g > %g", m, n, nb, class%5, res, tol)
		}
		for _, v := range q.Data {
			if math.IsNaN(v) {
				t.Fatal("NaN in Q")
			}
		}
	})
}

// FuzzDtpqrt2 differentially checks the structured stacked-triangle
// factorization: the unblocked Dtpqrt2, the blocked Dtpqrt at a fuzzed
// panel width, and a dense Dgeqr2 of the stacked pair must all agree on
// R (after sign normalization), and the two structured paths must agree
// on V and tau (they execute the same reflections) — as must whichever
// of them StackQR's rule picks, over orders on both sides of it.
func FuzzDtpqrt2(f *testing.F) {
	f.Add(uint8(4), uint8(2), int64(1))
	f.Add(uint8(64), uint8(32), int64(7))
	f.Add(uint8(1), uint8(0), int64(3))
	f.Add(uint8(33), uint8(5), int64(9))
	f.Add(uint8(127), uint8(7), int64(11))
	f.Add(uint8(150), uint8(15), int64(13))
	f.Fuzz(func(t *testing.T, nRaw, nbRaw uint8, seed int64) {
		n := 1 + int(nRaw)%160
		nb := 1 + int(nbRaw)%48
		r1 := randTriu(n, seed)
		r2 := randTriu(n, seed+1)
		// Unblocked.
		u1, u2 := r1.Clone(), r2.Clone()
		tauU := make([]float64, n)
		Dtpqrt2(u1, u2, tauU)
		// Blocked at the fuzzed width.
		b1, b2 := r1.Clone(), r2.Clone()
		tauB := make([]float64, n)
		Dtpqrt(b1, b2, tauB, nb)
		tol := 1e-11 * float64(n)
		for j := 0; j < n; j++ {
			if math.Abs(tauU[j]-tauB[j]) > tol {
				t.Fatalf("n=%d nb=%d: tau[%d] %g vs %g", n, nb, j, tauU[j], tauB[j])
			}
		}
		if !matrix.Equal(u2, b2, tol) {
			t.Fatalf("n=%d nb=%d: V differs between blocked and unblocked", n, nb)
		}
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				if math.Abs(u1.At(i, j)-b1.At(i, j)) > tol {
					t.Fatalf("n=%d nb=%d: R differs at (%d,%d)", n, nb, i, j)
				}
			}
		}
		// The rule's pick, through the value-level entry point.
		s1, s2, tauS := StackQR(r1, r2)
		if !matrix.Equal(s1, TriuCopy(u1), tol) || !matrix.Equal(s2, u2, tol) {
			t.Fatalf("n=%d: StackQR differs from Dtpqrt2", n)
		}
		for j := 0; j < n; j++ {
			if math.Abs(tauS[j]-tauU[j]) > tol {
				t.Fatalf("n=%d: StackQR tau[%d] %g vs %g", n, j, tauS[j], tauU[j])
			}
		}
		// Dense reference on the stack.
		ru := TriuCopy(u1).View(0, 0, n, n).Clone()
		NormalizeRSigns(ru, nil)
		want := denseStackR(r1, r2)
		if !matrix.Equal(ru, want, tol) {
			t.Fatalf("n=%d: structured R differs from dense stacked QR", n)
		}
	})
}
