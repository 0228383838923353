package lapack

import (
	"sync"

	"gridqr/internal/matrix"
)

// workspacePool recycles the scratch buffers of the blocked QR path.
// Dgeqrf and Dormqr allocate a T factor per call and Dlarfb a k×n W
// (plus, for any block but a four-wide one, the transposed V1 head) per
// panel — on the serving layer's hot path that is thousands of
// short-lived slices per factorization.
// One shared pool of float64 slices, grown to the largest size seen,
// removes nearly all of them.
var workspacePool = sync.Pool{
	New: func() any {
		b := make([]float64, 0, 4096)
		return &b
	},
}

// getWork borrows a length-n scratch slice. Contents are UNDEFINED —
// callers must overwrite every element they later read (the pattern of
// every user in this package: Dlarf's w, Dlarft's T and Dlarfb's W are
// computed before they are consumed, and Dtrmm's triangular operands
// never read the untouched triangle).
func getWork(n int) *[]float64 {
	bp := workspacePool.Get().(*[]float64)
	if cap(*bp) < n {
		*bp = make([]float64, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// putWork returns a borrowed slice to the pool.
func putWork(bp *[]float64) { workspacePool.Put(bp) }

// getMat borrows a rows×cols matrix on pooled storage; same undefined-
// contents contract as getWork. Release with putWork on the second
// return value after the matrix's last use. The header comes back by
// value so that it lives on the caller's stack.
func getMat(rows, cols int) (matrix.Dense, *[]float64) {
	bp := getWork(rows * cols)
	return *matrix.FromColMajor(rows, cols, *bp), bp
}
