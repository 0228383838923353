package blas

import (
	"math"
	"testing"
	"testing/quick"

	"gridqr/internal/matrix"
)

func TestDdot(t *testing.T) {
	if got := Ddot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Ddot = %g want 32", got)
	}
	if got := Ddot(nil, nil); got != 0 {
		t.Fatalf("Ddot(empty) = %g want 0", got)
	}
}

func TestDdotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Ddot([]float64{1}, []float64{1, 2})
}

func TestDnrm2(t *testing.T) {
	if got := Dnrm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Dnrm2 = %g want 5", got)
	}
	if Dnrm2(nil) != 0 {
		t.Fatal("Dnrm2(empty) != 0")
	}
}

func TestDnrm2Overflow(t *testing.T) {
	got := Dnrm2([]float64{1e200, 1e200})
	want := math.Sqrt2 * 1e200
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Dnrm2 overflow: %g", got)
	}
}

func TestDnrm2Underflow(t *testing.T) {
	got := Dnrm2([]float64{1e-200, 1e-200})
	want := math.Sqrt2 * 1e-200
	if got == 0 || math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Dnrm2 underflow: %g", got)
	}
}

func TestDasum(t *testing.T) {
	if got := Dasum([]float64{-1, 2, -3}); got != 6 {
		t.Fatalf("Dasum = %g want 6", got)
	}
}

func TestDaxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Daxpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Daxpy = %v want %v", y, want)
		}
	}
}

func TestDaxpyZeroAlpha(t *testing.T) {
	y := []float64{1, 2}
	Daxpy(0, []float64{math.NaN(), math.NaN()}, y)
	if y[0] != 1 || y[1] != 2 {
		t.Fatal("Daxpy with alpha=0 must not touch y")
	}
}

func TestDscal(t *testing.T) {
	x := []float64{1, 2}
	Dscal(3, x)
	if x[0] != 3 || x[1] != 6 {
		t.Fatalf("Dscal = %v", x)
	}
}

func TestIdamax(t *testing.T) {
	if got := Idamax([]float64{1, -5, 3}); got != 1 {
		t.Fatalf("Idamax = %d want 1", got)
	}
	if got := Idamax(nil); got != -1 {
		t.Fatalf("Idamax(empty) = %d want -1", got)
	}
	// Ties resolve to the first occurrence, as in reference BLAS.
	if got := Idamax([]float64{2, -2}); got != 0 {
		t.Fatalf("Idamax tie = %d want 0", got)
	}
}

// Property: Ddot is symmetric and bilinear in its first argument.
func TestDdotProperties(t *testing.T) {
	f := func(seed int64) bool {
		x := matrix.Random(17, 1, seed).Col(0)
		y := matrix.Random(17, 1, seed+1).Col(0)
		if math.Abs(Ddot(x, y)-Ddot(y, x)) > 1e-12 {
			return false
		}
		x2 := append([]float64(nil), x...)
		Dscal(2, x2)
		return math.Abs(Ddot(x2, y)-2*Ddot(x, y)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Dnrm2(x)^2 == Ddot(x,x) within roundoff.
func TestDnrm2DdotConsistency(t *testing.T) {
	f := func(seed int64) bool {
		x := matrix.Random(31, 1, seed).Col(0)
		n := Dnrm2(x)
		return math.Abs(n*n-Ddot(x, x)) <= 1e-12*(1+n*n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
