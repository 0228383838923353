package blas

import (
	"math"
	"testing"

	"gridqr/internal/matrix"
)

// Differential fuzzing of the packed engine against the textbook
// reference kernels in ref.go. The fuzzer owns the shape, transpose
// flags and scalars; matrix entries come from the deterministic
// matrix.Random generator seeded by the fuzz input, which keeps inputs
// reproducible from the corpus file alone.

func FuzzDgemm(f *testing.F) {
	f.Add(uint16(8), uint16(8), uint16(8), false, false, 1.0, 0.0, int64(1))
	f.Add(uint16(65), uint16(33), uint16(129), true, false, -0.5, 1.0, int64(2))
	f.Add(uint16(4), uint16(1), uint16(300), false, true, 2.0, 0.25, int64(3))
	f.Add(uint16(1), uint16(90), uint16(2), true, true, 1.5, -1.0, int64(4))
	// The skinny kernels' shapes: short k under ragged m (A·B), short m
	// over ragged k (Aᵀ·B), n off both tile widths.
	for i, k := range []uint16{1, 4, 8, 16, 64} {
		f.Add(uint16(129+i), uint16(7), k-1, false, false, -1.0, 1.0, int64(5+i))
		f.Add(k-1, uint16(11), uint16(131+i), true, false, 0.5, 0.0, int64(10+i))
	}
	f.Fuzz(func(t *testing.T, um, un, uk uint16, taT, tbT bool, alpha, beta float64, seed int64) {
		m, n, k := int(um%160)+1, int(un%160)+1, int(uk%160)+1
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e3 ||
			math.IsNaN(beta) || math.IsInf(beta, 0) || math.Abs(beta) > 1e3 {
			t.Skip()
		}
		ta, tb := NoTrans, NoTrans
		ar, ac, br, bc := m, k, k, n
		if taT {
			ta, ar, ac = Trans, k, m
		}
		if tbT {
			tb, br, bc = Trans, n, k
		}
		// Views off the top of taller parents: leading dimensions the
		// rows do not fill and column bases off any alignment.
		pad := int(uint64(seed) % 4)
		a := matrix.Random(ar+pad, ac, seed).View(pad, 0, ar, ac)
		b := matrix.Random(br+pad, bc, seed+1).View(pad/2, 0, br, bc)
		c0 := matrix.Random(m, n, seed+2)

		want := c0.Clone()
		gemmRef(ta, tb, alpha, a, b, beta, want)

		// Entries are O(1), so each C element is a length-k dot plus the
		// beta term; 1e-13 per accumulated term covers reordering error.
		tol := 1e-13 * float64(k+1) * (math.Abs(alpha) + math.Abs(beta) + 1)

		check := func(label string, got *matrix.Dense) {
			t.Helper()
			if d := maxAbsDiff(got, want); d > tol || math.IsNaN(d) {
				t.Fatalf("%s m=%d n=%d k=%d ta=%v tb=%v alpha=%g beta=%g: max diff %g > %g",
					label, m, n, k, ta, tb, alpha, beta, d, tol)
			}
		}

		c := c0.Clone()
		Dgemm(ta, tb, alpha, a, b, beta, c)
		check("dispatch", c)

		c = c0.Clone()
		gemmPacked(ta, tb, alpha, a, b, beta, c)
		check("packed", c)

		c = c0.Clone()
		gemmSmall(ta, tb, alpha, a, b, beta, c, 0, n)
		check("sweep", c)

		if haveAsmKernel() {
			prev := setAsmKernel(false)
			c = c0.Clone()
			gemmPacked(ta, tb, alpha, a, b, beta, c)
			check("packed-go", c)
			c = c0.Clone()
			gemmSmall(ta, tb, alpha, a, b, beta, c, 0, n)
			setAsmKernel(prev)
			check("sweep-go", c)
		}
	})
}

func FuzzDgemv(f *testing.F) {
	f.Add(uint16(8), uint16(8), uint16(0), false, 1.0, 0.0, int64(1))
	f.Add(uint16(65), uint16(33), uint16(3), true, -0.5, 1.0, int64(2))
	f.Add(uint16(4), uint16(1), uint16(1), false, 2.0, 0.25, int64(3))
	f.Add(uint16(1), uint16(90), uint16(5), true, 1.5, -1.0, int64(4))
	f.Fuzz(func(t *testing.T, um, un, upad uint16, transT bool, alpha, beta float64, seed int64) {
		m, n, pad := int(um%160)+1, int(un%160)+1, int(upad%8)
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e3 ||
			math.IsNaN(beta) || math.IsInf(beta, 0) || math.Abs(beta) > 1e3 {
			t.Skip()
		}
		trans := NoTrans
		xn, yn := n, m
		if transT {
			trans, xn, yn = Trans, m, n
		}
		a := matrix.Random(m+pad, n, seed).View(pad/2, 0, m, n)
		x := matrix.Random(xn, 1, seed+1).Col(0)
		y0 := matrix.Random(yn, 1, seed+2).Col(0)

		want := append([]float64(nil), y0...)
		gemvRef(trans, alpha, a, x, beta, want)

		// Each y element is a length-m (or n) FMA dot plus the beta term.
		tol := 1e-13 * float64(xn+1) * (math.Abs(alpha) + math.Abs(beta) + 1)

		check := func(label string, got []float64) {
			t.Helper()
			for i := range want {
				if d := math.Abs(got[i] - want[i]); d > tol || math.IsNaN(d) {
					t.Fatalf("%s m=%d n=%d pad=%d trans=%v alpha=%g beta=%g: y[%d] diff %g > %g",
						label, m, n, pad, trans, alpha, beta, i, d, tol)
				}
			}
		}

		y := append([]float64(nil), y0...)
		Dgemv(trans, alpha, a, x, beta, y)
		check("dispatch", y)

		if haveAsmKernel() {
			prev := setAsmKernel(false)
			y = append([]float64(nil), y0...)
			Dgemv(trans, alpha, a, x, beta, y)
			setAsmKernel(prev)
			check("fallback", y)
		}
	})
}

func FuzzDger(f *testing.F) {
	f.Add(uint16(8), uint16(8), uint16(0), 1.0, int64(1))
	f.Add(uint16(65), uint16(33), uint16(3), -0.5, int64(2))
	f.Add(uint16(4), uint16(1), uint16(1), 2.0, int64(3))
	f.Add(uint16(1), uint16(90), uint16(5), 1.5, int64(4))
	f.Fuzz(func(t *testing.T, um, un, upad uint16, alpha float64, seed int64) {
		m, n, pad := int(um%160)+1, int(un%160)+1, int(upad%8)
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e3 {
			t.Skip()
		}
		x := matrix.Random(m, 1, seed+1).Col(0)
		y := matrix.Random(n, 1, seed+2).Col(0)

		want := matrix.Random(m+pad, n, seed).View(pad/2, 0, m, n).Clone()
		gerRef(alpha, x, y, want)

		tol := 1e-14 * (math.Abs(alpha) + 1)

		run := func(label string) {
			t.Helper()
			a := matrix.Random(m+pad, n, seed).View(pad/2, 0, m, n)
			Dger(alpha, x, y, a)
			if d := maxAbsDiff(a.Clone(), want); d > tol || math.IsNaN(d) {
				t.Fatalf("%s m=%d n=%d pad=%d alpha=%g: max diff %g > %g", label, m, n, pad, alpha, d, tol)
			}
		}

		run("dispatch")
		if haveAsmKernel() {
			prev := setAsmKernel(false)
			run("fallback")
			setAsmKernel(prev)
		}
	})
}

func FuzzDtrsm(f *testing.F) {
	f.Add(uint16(8), uint16(4), false, false, false, 1.0, int64(1))
	f.Add(uint16(100), uint16(7), true, false, true, 0.5, int64(2))
	f.Add(uint16(160), uint16(3), false, true, false, -2.0, int64(3))
	f.Add(uint16(65), uint16(1), true, true, true, 1.0, int64(4))
	f.Fuzz(func(t *testing.T, un, uc uint16, left, transT, unit bool, alpha float64, seed int64) {
		// n up to 176 crosses the triBlock=64 recursion at least twice;
		// the off-diagonal coupling updates then run through the packed
		// engine for the larger cases.
		n := int(un%176) + 1
		nc := int(uc%8) + 1
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e3 {
			t.Skip()
		}
		side, trans := Right, NoTrans
		br, bc := nc, n
		if left {
			side, br, bc = Left, n, nc
		}
		if transT {
			trans = Trans
		}
		tm := matrix.Random(n, n, seed)
		for i := 0; i < n; i++ {
			// Scale the strict upper triangle down so the substitution
			// recurrence is a contraction even in the unit-diagonal case
			// (O(1) off-diagonal entries amplify the solution — and the
			// rounding error — exponentially in n); a clean diagonal then
			// keeps the whole solve conditioned near 1, so forward-error
			// comparison against the reference is tight.
			for j := i + 1; j < n; j++ {
				tm.Set(i, j, tm.At(i, j)/float64(2*n))
			}
			tm.Set(i, i, 2+math.Abs(tm.At(i, i)))
			for j := 0; j < i; j++ {
				tm.Set(i, j, 0) // upper triangular
			}
		}
		b0 := matrix.Random(br, bc, seed+1)

		want := b0.Clone()
		trsmRef(side, trans, unit, alpha, tm, want)

		got := b0.Clone()
		Dtrsm(side, trans, unit, alpha, tm, got)

		// The solve is backward stable and T is diagonally dominant, so
		// the two algorithms agree to rounding accumulated over ~n terms.
		tol := 1e-12 * float64(n+1) * (math.Abs(alpha) + 1)
		if d := maxAbsDiff(got, want); d > tol || math.IsNaN(d) {
			t.Fatalf("side=%v trans=%v unit=%v n=%d nc=%d alpha=%g: max diff %g > %g",
				side, trans, unit, n, nc, alpha, d, tol)
		}
	})
}
