package blas

import "gridqr/internal/matrix"

// Transpose selects op(A) = A or Aᵀ in level-2/3 routines.
type Transpose bool

const (
	NoTrans Transpose = false
	Trans   Transpose = true
)

// Dgemv computes y = alpha*op(A)*x + beta*y.
//
// Columns are processed in 4-wide blocks through the fused level-2 kernels
// (level2_fallback.go / level2_kernel_amd64.s) with ddot/daxpy leftovers.
// The block split depends only on the shape — never on the data — so
// results are bitwise-reproducible for a given shape and kernel path.
func Dgemv(t Transpose, alpha float64, a *matrix.Dense, x []float64, beta float64, y []float64) {
	m, n := a.Rows, a.Cols
	if t == NoTrans {
		if len(x) != n || len(y) != m {
			panic("blas: Dgemv shape mismatch")
		}
		if beta != 1 {
			Dscal(beta, y)
		}
		if m == 0 || alpha == 0 {
			return
		}
		var f [4]float64
		j := 0
		for ; j+4 <= n; j += 4 {
			f[0], f[1], f[2], f[3] = alpha*x[j], alpha*x[j+1], alpha*x[j+2], alpha*x[j+3]
			gemvN4Kernel(a.Data[j*a.Stride:], a.Stride, &f, y)
		}
		for ; j < n; j++ {
			daxpyKernel(alpha*x[j], a.Col(j), y)
		}
		return
	}
	if len(x) != m || len(y) != n {
		panic("blas: Dgemv shape mismatch")
	}
	if m == 0 {
		for j := range y {
			y[j] = beta * y[j]
		}
		return
	}
	var out [4]float64
	j := 0
	for ; j+4 <= n; j += 4 {
		gemvT4Kernel(a.Data[j*a.Stride:], a.Stride, x, &out)
		y[j] = alpha*out[0] + beta*y[j]
		y[j+1] = alpha*out[1] + beta*y[j+1]
		y[j+2] = alpha*out[2] + beta*y[j+2]
		y[j+3] = alpha*out[3] + beta*y[j+3]
	}
	for ; j < n; j++ {
		y[j] = alpha*ddotKernel(a.Col(j), x) + beta*y[j]
	}
}

// Dger computes A += alpha*x*yᵀ (rank-1 update), in the same shape-only
// 4-column blocking as Dgemv.
func Dger(alpha float64, x, y []float64, a *matrix.Dense) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic("blas: Dger shape mismatch")
	}
	if alpha == 0 || a.Rows == 0 {
		return
	}
	var f [4]float64
	j := 0
	for ; j+4 <= a.Cols; j += 4 {
		f[0], f[1], f[2], f[3] = alpha*y[j], alpha*y[j+1], alpha*y[j+2], alpha*y[j+3]
		dger4Kernel(a.Data[j*a.Stride:], a.Stride, &f, x)
	}
	for ; j < a.Cols; j++ {
		daxpyKernel(alpha*y[j], x, a.Col(j))
	}
}

// Dtrmv computes x = op(U)*x for an upper triangular matrix stored in the
// upper triangle of a (unit diagonal not supported; the QR kernels never
// need it for trmv). Element i is summed from zero over increasing j,
// one rounding per product and per add; both forms walk U by columns
// (NoTrans adds column j into the sums above it while x[j] is still the
// input, Trans is a dot down column i), which keeps that order.
func Dtrmv(t Transpose, a *matrix.Dense, x []float64) {
	n := a.Rows
	if a.Cols != n || len(x) != n {
		panic("blas: Dtrmv shape mismatch")
	}
	if t == NoTrans {
		for j := 0; j < n; j++ {
			col := a.Data[j*a.Stride : j*a.Stride+j+1]
			xj, xs := x[j], x[:j]
			for i, v := range col[:j] {
				xs[i] += v * xj
			}
			x[j] = 0 + col[j]*xj
		}
		return
	}
	for i := n - 1; i >= 0; i-- {
		var s float64
		xs := x[:i+1]
		for j, v := range a.Data[i*a.Stride : i*a.Stride+i+1] {
			s += v * xs[j]
		}
		x[i] = s
	}
}

// Dtrsv solves op(U)*x = b in place (x holds b on entry, the solution on
// exit) for an upper triangular U stored in a.
func Dtrsv(t Transpose, a *matrix.Dense, x []float64) {
	n := a.Rows
	if a.Cols != n || len(x) != n {
		panic("blas: Dtrsv shape mismatch")
	}
	if t == NoTrans {
		for i := n - 1; i >= 0; i-- {
			s := x[i]
			for j := i + 1; j < n; j++ {
				s -= a.At(i, j) * x[j]
			}
			x[i] = s / a.At(i, i)
		}
		return
	}
	for i := 0; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= a.At(j, i) * x[j]
		}
		x[i] = s / a.At(i, i)
	}
}
