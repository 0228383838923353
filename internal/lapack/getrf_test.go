package lapack

import (
	"math"
	"testing"
	"testing/quick"

	"gridqr/internal/matrix"
)

// dlaswp applies the row interchanges recorded in ipiv (Dgetf2
// convention) to a, forward (fwd=true, as during factorization) or
// backward (undoing them).
func dlaswp(a *matrix.Dense, ipiv []int, fwd bool) {
	if fwd {
		for k := 0; k < len(ipiv); k++ {
			if ipiv[k] != k {
				swapRows(a, k, ipiv[k])
			}
		}
		return
	}
	for k := len(ipiv) - 1; k >= 0; k-- {
		if ipiv[k] != k {
			swapRows(a, k, ipiv[k])
		}
	}
}

// luReconstructError returns ‖P·A − L·U‖_F / ‖A‖_F for a factorization
// produced by Dgetf2 over the original matrix orig.
func luReconstructError(orig, factored *matrix.Dense, ipiv []int) float64 {
	m, n := orig.Rows, orig.Cols
	k := min(m, n)
	pa := orig.Clone()
	dlaswp(pa, ipiv, true)
	// lu = L·U computed in place: L is m×k unit lower, U is k×n upper.
	lu := matrix.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for l := 0; l <= min(min(i, j), k-1); l++ {
				var lv float64
				if l == i {
					lv = 1
				} else if l < i {
					lv = factored.At(i, l)
				}
				s += lv * factored.At(l, j)
			}
			lu.Set(i, j, s)
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			lu.Set(i, j, pa.At(i, j)-lu.At(i, j))
		}
	}
	na := matrix.NormFrob(orig)
	if na == 0 {
		return matrix.NormFrob(lu)
	}
	return matrix.NormFrob(lu) / na
}

func TestDgetf2Square(t *testing.T) {
	a := matrix.Random(8, 8, 1)
	f := a.Clone()
	ipiv := make([]int, 8)
	if !Dgetf2(f, ipiv) {
		t.Fatal("unexpected singularity")
	}
	if err := luReconstructError(a, f, ipiv); err > 1e-13 {
		t.Fatalf("P·A − L·U error %g", err)
	}
}

func TestDgetf2Tall(t *testing.T) {
	a := matrix.Random(40, 6, 2)
	f := a.Clone()
	ipiv := make([]int, 6)
	if !Dgetf2(f, ipiv) {
		t.Fatal("unexpected singularity")
	}
	if err := luReconstructError(a, f, ipiv); err > 1e-13 {
		t.Fatalf("tall LU error %g", err)
	}
	// Partial pivoting bounds multipliers by 1.
	for j := 0; j < 6; j++ {
		for i := j + 1; i < 40; i++ {
			if math.Abs(f.At(i, j)) > 1+1e-14 {
				t.Fatalf("multiplier |L[%d][%d]| = %g > 1", i, j, f.At(i, j))
			}
		}
	}
}

func TestDgetf2PivotsChooseLargest(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 0}, {10, 1}})
	ipiv := make([]int, 2)
	Dgetf2(a, ipiv)
	if ipiv[0] != 1 {
		t.Fatalf("ipiv[0] = %d want 1 (row with the 10)", ipiv[0])
	}
}

func TestDgetf2Singular(t *testing.T) {
	a := matrix.New(3, 3) // zero matrix
	ipiv := make([]int, 3)
	if Dgetf2(a, ipiv) {
		t.Fatal("zero matrix must report singularity")
	}
}

func TestDlaswpRoundTrip(t *testing.T) {
	a := matrix.Random(6, 3, 3)
	orig := a.Clone()
	ipiv := []int{2, 4, 5}
	dlaswp(a, ipiv, true)
	if matrix.Equal(a, orig, 0) {
		t.Fatal("swaps did nothing")
	}
	dlaswp(a, ipiv, false)
	if !matrix.Equal(a, orig, 0) {
		t.Fatal("backward swaps do not undo forward swaps")
	}
}

func TestPivToPerm(t *testing.T) {
	// ipiv from factoring: step 0 swaps rows 0,2; step 1 swaps 1,2.
	perm := PivToPerm([]int{2, 2}, 3)
	// After step 0: order 2,1,0. After step 1: 2,0,1.
	want := []int{2, 0, 1}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("perm = %v want %v", perm, want)
		}
	}
}

func TestPivToPermMatchesDlaswp(t *testing.T) {
	f := func(seed int64) bool {
		a := matrix.Random(7, 4, seed)
		fm := a.Clone()
		ipiv := make([]int, 4)
		Dgetf2(fm, ipiv)
		perm := PivToPerm(ipiv, 7)
		pa := a.Clone()
		dlaswp(pa, ipiv, true)
		for i := 0; i < 7; i++ {
			for j := 0; j < 4; j++ {
				if pa.At(i, j) != a.At(perm[i], j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDpotrf(t *testing.T) {
	// Build SPD matrix A = BᵀB + I.
	b := matrix.Random(10, 6, 4)
	a := matrix.New(6, 6)
	for j := 0; j < 6; j++ {
		for i := 0; i <= j; i++ {
			var s float64
			for k := 0; k < 10; k++ {
				s += b.At(k, i) * b.At(k, j)
			}
			if i == j {
				s++
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
	}
	r := a.Clone()
	if !Dpotrf(r) {
		t.Fatal("SPD matrix rejected")
	}
	// Check RᵀR == A on the upper triangle.
	for j := 0; j < 6; j++ {
		for i := 0; i <= j; i++ {
			var s float64
			for k := 0; k <= i; k++ {
				s += r.At(k, i) * r.At(k, j)
			}
			if math.Abs(s-a.At(i, j)) > 1e-12 {
				t.Fatalf("RᵀR != A at (%d,%d): %g vs %g", i, j, s, a.At(i, j))
			}
		}
	}
}

func TestDpotrfRejectsIndefinite(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, −1
	if Dpotrf(a) {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestDpotrfIdentity(t *testing.T) {
	a := matrix.Eye(4)
	if !Dpotrf(a) {
		t.Fatal("identity rejected")
	}
	if !matrix.Equal(a, matrix.Eye(4), 1e-15) {
		t.Fatal("chol(I) != I")
	}
}
