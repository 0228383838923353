package core_test

import (
	"fmt"
	"sync"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// ExampleFactorize runs QCG-TSQR on a two-cluster in-process grid and
// verifies the factorization.
func ExampleFactorize() {
	const m, n = 4000, 8
	g := grid.SmallTestGrid(2, 2, 1) // 2 clusters × 2 procs
	a := matrix.Random(m, n, 1)
	offsets := scalapack.BlockOffsets(m, g.Procs())

	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var r, q *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := core.Input{M: m, N: n, Offsets: offsets,
			Local: scalapack.Distribute(a, offsets, ctx.Rank())}
		res := core.Factorize(comm, in, core.Config{Tree: core.TreeGrid, WantQ: true})
		qf := scalapack.Collect(comm, res.QLocal, offsets, n)
		if ctx.Rank() == 0 {
			mu.Lock()
			r, q = res.R, qf
			mu.Unlock()
		}
	})
	fmt.Println("R upper triangular:", matrix.IsUpperTriangular(r, 0))
	fmt.Println("orthogonal:", matrix.OrthoError(q) < 1e-10)
	fmt.Println("residual small:", matrix.ResidualQR(a, q, r) < 1e-12)
	// Output:
	// R upper triangular: true
	// orthogonal: true
	// residual small: true
}

// ExampleLeastSquares fits a line to distributed samples.
func ExampleLeastSquares() {
	const m = 1000
	g := grid.SmallTestGrid(1, 2, 1)
	offsets := scalapack.BlockOffsets(m, 2)
	// y = 3 + 2t, sampled exactly.
	a := matrix.New(m, 2)
	b := matrix.New(m, 1)
	for i := 0; i < m; i++ {
		t := float64(i) / (m - 1)
		a.Set(i, 0, 1)
		a.Set(i, 1, t)
		b.Set(i, 0, 3+2*t)
	}
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var x *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := core.Input{M: m, N: 2, Offsets: offsets,
			Local: scalapack.Distribute(a, offsets, ctx.Rank())}
		bl := scalapack.Distribute(b, offsets, ctx.Rank())
		xs, _ := core.LeastSquares(comm, in, bl, core.Config{})
		if ctx.Rank() == 0 {
			mu.Lock()
			x = xs
			mu.Unlock()
		}
	})
	fmt.Printf("intercept %.1f slope %.1f\n", x.At(0, 0), x.At(1, 0))
	// Output:
	// intercept 3.0 slope 2.0
}
