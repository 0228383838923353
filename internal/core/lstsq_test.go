package core

import (
	"math"
	"sync"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// runLS solves min‖Ax−b‖ distributed and returns x (from rank 0) and the
// replicated residuals.
func runLS(t *testing.T, g *grid.Grid, a, b *matrix.Dense) (*matrix.Dense, []float64) {
	t.Helper()
	m, n := a.Rows, a.Cols
	p := g.Procs()
	offsets := scalapack.BlockOffsets(m, p)
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var x *matrix.Dense
	var resid []float64
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(a, offsets, ctx.Rank())}
		bl := scalapack.Distribute(b, offsets, ctx.Rank())
		xs, rs := LeastSquares(comm, in, bl, Config{Tree: TreeGrid})
		if ctx.Rank() == 0 {
			mu.Lock()
			x, resid = xs, rs
			mu.Unlock()
		}
	})
	return x, resid
}

func TestLeastSquaresExactSystem(t *testing.T) {
	// b = A·x_true exactly: recover x_true with zero residual.
	g := grid.SmallTestGrid(2, 2, 1)
	m, n := 200, 5
	a := matrix.Random(m, n, 1)
	xTrue := matrix.Random(n, 1, 2)
	b := matrix.New(m, 1)
	for i := 0; i < m; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += a.At(i, j) * xTrue.At(j, 0)
		}
		b.Set(i, 0, s)
	}
	x, resid := runLS(t, g, a, b)
	for j := 0; j < n; j++ {
		if math.Abs(x.At(j, 0)-xTrue.At(j, 0)) > 1e-10 {
			t.Fatalf("x[%d] = %g want %g", j, x.At(j, 0), xTrue.At(j, 0))
		}
	}
	if resid[0] > 1e-10 {
		t.Fatalf("residual %g for consistent system", resid[0])
	}
}

func TestLeastSquaresMatchesNormalEquations(t *testing.T) {
	// For a noisy system the solution must satisfy AᵀA·x = Aᵀb.
	g := grid.SmallTestGrid(2, 2, 1)
	m, n := 300, 4
	a := matrix.Random(m, n, 3)
	b := matrix.Random(m, 1, 4)
	x, resid := runLS(t, g, a, b)
	// Check the normal equations directly.
	for k := 0; k < n; k++ {
		var lhs, rhs float64
		for i := 0; i < m; i++ {
			var ax float64
			for j := 0; j < n; j++ {
				ax += a.At(i, j) * x.At(j, 0)
			}
			lhs += a.At(i, k) * ax
			rhs += a.At(i, k) * b.At(i, 0)
		}
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(rhs)) {
			t.Fatalf("normal equation %d violated: %g vs %g", k, lhs, rhs)
		}
	}
	// Residual must equal the true residual norm.
	var ssq float64
	for i := 0; i < m; i++ {
		var ax float64
		for j := 0; j < n; j++ {
			ax += a.At(i, j) * x.At(j, 0)
		}
		d := b.At(i, 0) - ax
		ssq += d * d
	}
	if math.Abs(resid[0]-math.Sqrt(ssq)) > 1e-9*(1+resid[0]) {
		t.Fatalf("reported residual %g vs actual %g", resid[0], math.Sqrt(ssq))
	}
}

func TestLeastSquaresMultipleRHS(t *testing.T) {
	g := grid.SmallTestGrid(1, 4, 1)
	m, n, nrhs := 120, 3, 4
	a := matrix.Random(m, n, 5)
	b := matrix.Random(m, nrhs, 6)
	x, resid := runLS(t, g, a, b)
	if x.Rows != n || x.Cols != nrhs || len(resid) != nrhs {
		t.Fatalf("shapes: x %d×%d, resid %d", x.Rows, x.Cols, len(resid))
	}
	// Each column solved independently: compare against single-RHS runs.
	for j := 0; j < nrhs; j++ {
		bj := b.View(0, j, m, 1).Clone()
		xj, rj := runLS(t, g, a, bj)
		for k := 0; k < n; k++ {
			if math.Abs(x.At(k, j)-xj.At(k, 0)) > 1e-10 {
				t.Fatalf("rhs %d: x[%d] differs from single solve", j, k)
			}
		}
		if math.Abs(resid[j]-rj[0]) > 1e-9 {
			t.Fatalf("rhs %d: residual differs", j)
		}
	}
}

func TestLeastSquaresPolynomialFit(t *testing.T) {
	// Fit y = 2 − 3t + 0.5t² on noiseless samples: exact recovery.
	g := grid.SmallTestGrid(2, 2, 1)
	m := 400
	a := matrix.New(m, 3)
	b := matrix.New(m, 1)
	for i := 0; i < m; i++ {
		tt := float64(i) / float64(m-1)
		a.Set(i, 0, 1)
		a.Set(i, 1, tt)
		a.Set(i, 2, tt*tt)
		b.Set(i, 0, 2-3*tt+0.5*tt*tt)
	}
	x, _ := runLS(t, g, a, b)
	want := []float64{2, -3, 0.5}
	for j, wv := range want {
		if math.Abs(x.At(j, 0)-wv) > 1e-10 {
			t.Fatalf("coefficient %d = %g want %g", j, x.At(j, 0), wv)
		}
	}
}
