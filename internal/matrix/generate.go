package matrix

import (
	"math"
	"math/rand"
)

// Random returns a rows×cols matrix with entries uniform in [-1, 1), drawn
// from a deterministic stream seeded with seed so tests and benches are
// reproducible.
func Random(rows, cols int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	a := New(rows, cols)
	for i := range a.Data {
		a.Data[i] = 2*rng.Float64() - 1
	}
	return a
}

// RandomOrthoCols returns a rows×cols matrix (rows >= cols) whose columns
// are orthonormal, built by orthogonalizing a random matrix with modified
// Gram-Schmidt (twice, for numerical orthogonality).
func RandomOrthoCols(rows, cols int, seed int64) *Dense {
	if rows < cols {
		panic("matrix: RandomOrthoCols needs rows >= cols")
	}
	q := Random(rows, cols, seed)
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < cols; j++ {
			cj := q.Col(j)
			for k := 0; k < j; k++ {
				ck := q.Col(k)
				var d float64
				for i := range cj {
					d += ck[i] * cj[i]
				}
				for i := range cj {
					cj[i] -= d * ck[i]
				}
			}
			var nrm float64
			for _, v := range cj {
				nrm += v * v
			}
			nrm = math.Sqrt(nrm)
			for i := range cj {
				cj[i] /= nrm
			}
		}
	}
	return q
}

// Graded returns a rows×cols random matrix whose row magnitudes span
// 10^minExp .. 10^maxExp geometrically — the classic stress test for the
// overflow/underflow-safe norm and reflector computations (a naive
// sum-of-squares would overflow past 10^154).
func Graded(rows, cols int, minExp, maxExp float64, seed int64) *Dense {
	a := Random(rows, cols, seed)
	for i := 0; i < rows; i++ {
		e := minExp
		if rows > 1 {
			e += (maxExp - minExp) * float64(i) / float64(rows-1)
		}
		s := math.Pow(10, e)
		for j := 0; j < cols; j++ {
			a.Set(i, j, a.At(i, j)*s)
		}
	}
	return a
}

// WithCondition returns a rows×cols matrix (rows >= cols) with singular
// values geometrically spaced between 1 and 1/cond, for stability tests.
func WithCondition(rows, cols int, cond float64, seed int64) *Dense {
	u := RandomOrthoCols(rows, cols, seed)
	v := RandomOrthoCols(cols, cols, seed+1)
	// A = U * diag(sigma) * V^T, computed directly.
	a := New(rows, cols)
	for k := 0; k < cols; k++ {
		sigma := 1.0
		if cols > 1 {
			sigma = math.Pow(cond, -float64(k)/float64(cols-1))
		}
		uk := u.Col(k)
		for j := 0; j < cols; j++ {
			f := sigma * v.At(j, k)
			cj := a.Col(j)
			for i := range cj {
				cj[i] += f * uk[i]
			}
		}
	}
	return a
}

// splitMix64 is a counter-based pseudo-random generator: hashing a
// 64-bit index gives an independent, reproducible value — the right tool
// for distributed data generation, where each process must synthesize its
// own rows of a global matrix without materializing (or communicating)
// the rest.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RandomAt returns the deterministic pseudo-random value in [-1, 1) of
// global entry (row, col) of the virtual random matrix with the given
// seed. RandomRows slices are assembled from these values, so they are
// identical regardless of how the matrix is partitioned.
func RandomAt(seed int64, row, col int) float64 {
	h := splitMix64(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(row)<<20 ^ uint64(col))
	return 2*(float64(h>>11)/(1<<53)) - 1
}

// RandomRows materializes rows [rowOffset, rowOffset+rows) of the virtual
// random matrix: the distributed, process-count-invariant counterpart of
// Random. Two calls covering the same global rows produce identical
// values whatever the partition.
func RandomRows(rows, cols, rowOffset int, seed int64) *Dense {
	a := New(rows, cols)
	FillRandomRows(a, rowOffset, 1, seed)
	return a
}

// FillRandomRows overwrites a with every stride-th row of the virtual
// random matrix from row first on: entry (i, j) is
// RandomAt(seed, first+i·stride, j). a may be a view, so callers can
// generate rows straight into the buffer that consumes them.
func FillRandomRows(a *Dense, first, stride int, seed int64) {
	if a.Rows == 0 {
		return // Col panics on an empty matrix
	}
	// RandomAt hashes s ^ r_i ^ j with r_i = (first+i·stride)<<20: the
	// seed term is per matrix, the column term per column, and r_i
	// advances by a constant.
	s := uint64(seed) * 0x9e3779b97f4a7c15
	r, step := uint64(first)<<20, uint64(stride)<<20
	for j := 0; j < a.Cols; j++ {
		fillCol(a.Col(j), r, step, s^uint64(j))
	}
}

// useAsmKernel selects the assembly generator; resolved once at start-up
// and switched only by tests.
var useAsmKernel = haveAsmKernel()

// fillCol sets col[i] = unitFloat(splitMix64((r + i·step) ^ c)), the
// assembly kernel four rows at a time where the CPU has it, the Go loop
// for the rest.
func fillCol(col []float64, r, step, c uint64) {
	if n4 := len(col) &^ 3; useAsmKernel && n4 > 0 {
		fillColAsm(&col[0], n4, r, step, c)
		col = col[n4:]
		r += uint64(n4) * step
	}
	for i := range col {
		col[i] = unitFloat(splitMix64(r ^ c))
		r += step
	}
}

// unitFloat is RandomAt's map of a hash to [-1, 1), computed another
// way: with k = h>>11 < 2^53, 2·(k/2^53) − 1 = (k − 2^52)·2^-52, and
// every step of either form is exact. The signed integer converts in
// one instruction where the unsigned one does not.
func unitFloat(h uint64) float64 {
	return float64(int64(h>>11)-1<<52) * 0x1p-52
}
