// Package blas implements the dense basic linear algebra subprograms the
// QR kernels are built on: level-1 vector operations on slices, and
// level-2/3 operations on column-major matrices (internal/matrix.Dense).
//
// The level-3 matrix multiply is blocked for cache locality and can fan
// out across goroutines (see Dgemm), mirroring the role GotoBLAS plays in
// the paper's software stack.
package blas

import "math"

// Ddot returns xᵀy. Slices must have equal length. Runs through the fused
// multiply-add kernel (AVX2 or its bitwise-identical Go mirror), so the
// result differs from a plain multiply-then-add loop in the last ulps.
func Ddot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("blas: Ddot length mismatch")
	}
	return ddotKernel(x, y)
}

// Dnrm2 returns the Euclidean norm of x, with scaling against overflow.
//
// Fast path: xᵀx through the vector kernel and one square root, taken
// whenever the sum of squares is far from the under/overflow thresholds
// (the case for every conditioned input). The scaled one-pass update runs
// only when the unscaled sum is degenerate. Dlarfg calls this once per
// reflector on the full column tail, which made the scalar scaled loop a
// measurable slice of skinny-panel factorization.
func Dnrm2(x []float64) float64 {
	const (
		tsml = 1e-280 // squares this small may have lost underflowed terms
		tbig = 1e280  // or overflowed on the way up
	)
	if s := ddotKernel(x, x); s > tsml && s < tbig {
		return math.Sqrt(s)
	}
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Dasum returns the sum of absolute values of x.
func Dasum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// Daxpy computes y = fma(alpha, x, y) elementwise.
func Daxpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("blas: Daxpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	daxpyKernel(alpha, x, y)
}

// Dscal computes x *= alpha.
func Dscal(alpha float64, x []float64) {
	dscalKernel(alpha, x)
}

// Idamax returns the index of the element of largest absolute value, or -1
// for an empty slice.
func Idamax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, idx := math.Abs(x[0]), 0
	for i := 1; i < len(x); i++ {
		if av := math.Abs(x[i]); av > best {
			best, idx = av, i
		}
	}
	return idx
}
