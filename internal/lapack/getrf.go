package lapack

import (
	"math"

	"gridqr/internal/matrix"
)

// LU factorization kernels with partial pivoting, the local building
// blocks of the TSLU/CALU extension the paper's conclusion points to
// (Grigori, Demmel, Xiang — communication-avoiding Gaussian elimination).

// Dgetf2 computes the unblocked LU factorization with partial pivoting of
// an m×n matrix: A = P·L·U. On return the strictly-lower part of a holds
// L (unit diagonal implicit) and the upper part U. ipiv[k] = i means rows
// k and i were swapped at step k (LAPACK convention, 0-based). Returns
// false if an exactly singular pivot was hit (factorization completes
// with a zero pivot, as in LAPACK).
func Dgetf2(a *matrix.Dense, ipiv []int) bool {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if len(ipiv) < k {
		panic("lapack: Dgetf2 ipiv too short")
	}
	ok := true
	for j := 0; j < k; j++ {
		// Pivot: largest |a[i][j]| for i >= j.
		col := a.Col(j)
		p := j
		best := math.Abs(col[j])
		for i := j + 1; i < m; i++ {
			if av := math.Abs(col[i]); av > best {
				best, p = av, i
			}
		}
		ipiv[j] = p
		if best == 0 {
			ok = false
			continue
		}
		if p != j {
			swapRows(a, j, p)
		}
		// Scale the pivot column and update the trailing block.
		piv := a.At(j, j)
		for i := j + 1; i < m; i++ {
			col[i] /= piv
		}
		for c := j + 1; c < n; c++ {
			cc := a.Col(c)
			f := cc[j]
			if f == 0 {
				continue
			}
			for i := j + 1; i < m; i++ {
				cc[i] -= f * col[i]
			}
		}
	}
	return ok
}

func swapRows(a *matrix.Dense, i, j int) {
	for c := 0; c < a.Cols; c++ {
		col := a.Col(c)
		col[i], col[j] = col[j], col[i]
	}
}

// PivToPerm converts step-wise interchanges into the permutation they
// produce: perm[k] is the original row index that ends up at row k.
func PivToPerm(ipiv []int, m int) []int {
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	for k, p := range ipiv {
		perm[k], perm[p] = perm[p], perm[k]
	}
	return perm
}

// Dpotrf computes the Cholesky factorization A = RᵀR of a symmetric
// positive definite matrix, storing the upper triangular R in the upper
// triangle of a (the strictly-lower part is not referenced). Returns
// false if a non-positive pivot is met (A not positive definite).
func Dpotrf(a *matrix.Dense) bool {
	n := a.Rows
	if a.Cols != n {
		panic("lapack: Dpotrf needs a square matrix")
	}
	for j := 0; j < n; j++ {
		// d = a[j][j] - sum_{k<j} r[k][j]^2
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			r := a.At(k, j)
			d -= r * r
		}
		if d <= 0 {
			return false
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		for c := j + 1; c < n; c++ {
			s := a.At(j, c)
			for k := 0; k < j; k++ {
				s -= a.At(k, j) * a.At(k, c)
			}
			a.Set(j, c, s/d)
		}
	}
	return true
}
