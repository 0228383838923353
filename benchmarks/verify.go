package main

import (
	"math"

	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
)

// Tolerances of the harness's result checks.
const (
	rTol = 1e-10 // R against the sequential reference, relative Frobenius
	qTol = 1e-12 // ‖A−QR‖/‖A‖ and ‖I−QᵀQ‖ on factor_q
)

// rMatchesReference reports whether r is upper triangular and, after
// sign normalization, within rTol (relative Frobenius) of ref. Neither
// argument is modified.
func rMatchesReference(r, ref *matrix.Dense) (bool, float64) {
	if r == nil || r.Rows != ref.Rows || r.Cols != ref.Cols {
		return false, math.Inf(1)
	}
	if !matrix.IsUpperTriangular(r, 0) {
		return false, math.Inf(1)
	}
	a, b := r.Clone(), ref.Clone()
	lapack.NormalizeRSigns(a, nil)
	lapack.NormalizeRSigns(b, nil)
	var diff, norm float64
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			d := ca[i] - cb[i]
			diff += d * d
			norm += cb[i] * cb[i]
		}
	}
	if norm == 0 {
		return diff == 0, diff
	}
	rel := math.Sqrt(diff / norm)
	return rel <= rTol, rel
}

// bitsHash folds the bit patterns of the matrices into one word, so
// repeated ops on the same input can be held to bitwise-equal outputs
// without keeping the outputs.
func bitsHash(ms ...*matrix.Dense) uint64 {
	h := uint64(14695981039346656037)
	for _, m := range ms {
		if m == nil {
			h = h*1099511628211 ^ 0x9e3779b97f4a7c15
			continue
		}
		for j := 0; j < m.Cols; j++ {
			for _, v := range m.Col(j) {
				h = h*1099511628211 ^ math.Float64bits(v)
			}
		}
	}
	return h
}
