// Package matrix provides a column-major dense matrix type and the
// view/copy/norm utilities the numerical kernels are built on.
//
// Column-major storage matches the LAPACK algorithms implemented in
// internal/lapack: a column of a tall-and-skinny matrix is contiguous in
// memory, which is the access pattern of Householder QR.
package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a column-major matrix: element (i, j) lives at Data[j*Stride+i].
// A Dense may be a view into a larger matrix, in which case Stride exceeds
// Rows and Data aliases the parent's backing slice.
type Dense struct {
	Rows   int
	Cols   int
	Stride int
	Data   []float64
}

// New allocates a zeroed rows×cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %d×%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Stride: max(rows, 1), Data: make([]float64, rows*cols)}
}

// FromColMajor wraps an existing column-major slice without copying.
// len(data) must be at least rows*cols.
func FromColMajor(rows, cols int, data []float64) *Dense {
	if len(data) < rows*cols {
		panic(rangeError{"slice of length %d cannot hold %d×%d", [6]int{len(data), rows, cols}})
	}
	return &Dense{Rows: rows, Cols: cols, Stride: max(rows, 1), Data: data}
}

// FromRows builds a matrix from row-major [][]float64 literal data,
// which reads naturally in tests.
func FromRows(rows [][]float64) *Dense {
	m := len(rows)
	if m == 0 {
		return New(0, 0)
	}
	n := len(rows[0])
	a := New(m, n)
	for i, r := range rows {
		if len(r) != n {
			panic("matrix: ragged rows")
		}
		for j, v := range r {
			a.Set(i, j, v)
		}
	}
	return a
}

// At returns element (i, j).
func (a *Dense) At(i, j int) float64 {
	a.check(i, j)
	return a.Data[j*a.Stride+i]
}

// Set stores v at element (i, j).
func (a *Dense) Set(i, j int, v float64) {
	a.check(i, j)
	a.Data[j*a.Stride+i] = v
}

func (a *Dense) check(i, j int) {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %d×%d", i, j, a.Rows, a.Cols))
	}
}

// Col returns the contiguous backing slice of column j, length Rows.
func (a *Dense) Col(j int) []float64 {
	if j < 0 || j >= a.Cols {
		panic(rangeError{"column %d out of range %d", [6]int{j, a.Cols}})
	}
	return a.Data[j*a.Stride : j*a.Stride+a.Rows]
}

// View returns the submatrix of shape rows×cols whose top-left corner is
// (i, j). The view shares storage with a.
func (a *Dense) View(i, j, rows, cols int) *Dense {
	if i|j|rows|cols < 0 || i+rows > a.Rows || j+cols > a.Cols {
		panic(rangeError{"view (%d,%d)+%d×%d out of range %d×%d", [6]int{i, j, rows, cols, a.Rows, a.Cols}})
	}
	v := &Dense{Rows: rows, Cols: cols, Stride: a.Stride}
	if rows != 0 && cols != 0 {
		v.Data = a.Data[j*a.Stride+i:]
	}
	return v
}

// rangeError is what FromColMajor, Col and View panic with. Its message
// is formatted when it is read, not where it is raised, which keeps the
// three under the inliner's budget: an inlined View's header can live on
// its caller's stack, and the kernels' inner loops make one per step.
type rangeError struct {
	format string
	args   [6]int
}

func (e rangeError) Error() string {
	args := make([]any, strings.Count(e.format, "%d"))
	for i := range args {
		args[i] = e.args[i]
	}
	return "matrix: " + fmt.Sprintf(e.format, args...)
}

// Clone returns a compact (Stride == Rows) deep copy of a.
func (a *Dense) Clone() *Dense {
	b := New(a.Rows, a.Cols)
	Copy(b, a)
	return b
}

// Copy copies src into dst; shapes must match. Strides may differ.
func Copy(dst, src *Dense) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("matrix: copy shape mismatch %d×%d vs %d×%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	for j := 0; j < src.Cols; j++ {
		copy(dst.Col(j), src.Col(j))
	}
}

// Zero sets every element of a to 0 (views included).
func (a *Dense) Zero() {
	for j := 0; j < a.Cols; j++ {
		c := a.Col(j)
		for i := range c {
			c[i] = 0
		}
	}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	a := New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	return a
}

// Equal reports whether a and b have the same shape and |a-b| <= tol
// elementwise.
func Equal(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if math.Abs(a.At(i, j)-b.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}

// T returns a compact copy of the transpose of a.
func (a *Dense) T() *Dense {
	t := New(a.Cols, a.Rows)
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			t.Set(j, i, a.At(i, j))
		}
	}
	return t
}

// Stack returns the (a.Rows+b.Rows)×cols matrix [a; b]. Column counts must
// match.
func Stack(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: stack column mismatch %d vs %d", a.Cols, b.Cols))
	}
	s := New(a.Rows+b.Rows, a.Cols)
	Copy(s.View(0, 0, a.Rows, a.Cols), a)
	Copy(s.View(a.Rows, 0, b.Rows, b.Cols), b)
	return s
}

// String renders small matrices for test failure messages.
func (a *Dense) String() string {
	s := fmt.Sprintf("%d×%d[", a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < a.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", a.At(i, j))
		}
	}
	return s + "]"
}
