// Command tsqr factors a matrix with the communication-avoiding
// algorithms of this library, running the distributed code for real (one
// goroutine per process) on an in-process cluster-of-clusters, and
// verifies the result numerically.
//
// Usage:
//
//	tsqr [-algo tsqr|caqr|cholqr|tslu] [-m rows] [-n cols] [-in file.mtx]
//	     [-clusters c] [-procs p] [-domains d]
//	     [-tree grid|binary|flat|shuffled] [-q] [-baseline] [-out r.mtx]
//
// Without -in, a random matrix of the requested size is generated.
// With -out, the resulting R (or U for tslu) is written in MatrixMarket
// format.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"gridqr/internal/blas"
	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mmio"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

func main() {
	algo := flag.String("algo", "tsqr", "algorithm: tsqr, caqr, cholqr, tslu, lstsq")
	m := flag.Int("m", 100000, "rows (ignored with -in)")
	n := flag.Int("n", 32, "columns (ignored with -in)")
	inFile := flag.String("in", "", "MatrixMarket input file")
	outFile := flag.String("out", "", "write the triangular factor to this MatrixMarket file")
	clusters := flag.Int("clusters", 2, "simulated clusters")
	procsPerCluster := flag.Int("procs", 4, "processes per cluster")
	domains := flag.Int("domains", 0, "domains per cluster (0 = one per process; tsqr only)")
	treeName := flag.String("tree", "grid", "reduction tree: grid, binary, flat, shuffled")
	wantQ := flag.Bool("q", false, "also build the explicit Q factor (tsqr only)")
	baseline := flag.Bool("baseline", false, "also run the ScaLAPACK-style baseline for comparison")
	nb := flag.Int("nb", 64, "panel width (caqr)")
	seed := flag.Int64("seed", 1, "matrix seed")
	flag.Parse()

	tree, ok := map[string]core.Tree{
		"grid": core.TreeGrid, "binary": core.TreeBinary,
		"flat": core.TreeFlat, "shuffled": core.TreeBinaryShuffled,
	}[*treeName]
	if !ok {
		fatal("unknown tree %q", *treeName)
	}

	global := loadOrGenerate(*inFile, *m, *n, *seed)
	g := grid.SmallTestGrid(*clusters, *procsPerCluster, 1)
	p := g.Procs()
	if *algo != "caqr" && global.Rows < p*global.Cols {
		fatal("matrix too short: %d×%d needs at least %d rows for %d processes (N rows per domain); reduce -procs/-clusters",
			global.Rows, global.Cols, p*global.Cols, p)
	}
	offsets := scalapack.BlockOffsets(global.Rows, p)
	switch *algo {
	case "caqr":
		if _, err := core.CAQRPanelWidth(offsets, *nb); err != nil {
			fatal("%v; pick -m, -clusters/-procs and -nb so each process's rows are a multiple of -nb", err)
		}
	case "tsqr":
		sizes := make([]int, *clusters)
		for c := range sizes {
			sizes[c] = g.Clusters[c].Procs()
		}
		if err := core.DomainSplit(sizes, *domains); err != nil {
			fatal("%v; pick -domains dividing -procs", err)
		}
	}
	fmt.Printf("%s: %d×%d matrix over %d processes (%d clusters, %s tree)\n",
		*algo, global.Rows, global.Cols, p, *clusters, tree)

	var factor *matrix.Dense
	switch *algo {
	case "tsqr":
		factor = runTSQR(g, global, offsets, core.Config{
			DomainsPerCluster: *domains, Tree: tree, WantQ: *wantQ,
		})
	case "caqr":
		factor = runCAQR(g, global, offsets, *nb)
	case "cholqr":
		factor = runCholQR(g, global, offsets)
	case "tslu":
		factor = runTSLU(g, global, offsets, tree)
	case "lstsq":
		factor = runLstsq(g, global, offsets, tree, *seed)
	default:
		fatal("unknown algorithm %q", *algo)
	}

	if *baseline {
		runBaseline(g, global, offsets)
	}
	if *outFile != "" && factor != nil {
		f, err := os.Create(*outFile)
		if err != nil {
			fatal("%v", err)
		}
		if err := mmio.Write(f, factor); err != nil {
			fatal("%v", err)
		}
		f.Close()
		fmt.Printf("wrote %d×%d factor to %s\n", factor.Rows, factor.Cols, *outFile)
	}
}

func loadOrGenerate(path string, m, n int, seed int64) *matrix.Dense {
	if path == "" {
		return matrix.Random(m, n, seed)
	}
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	a, err := mmio.Read(f)
	if err != nil {
		fatal("%v", err)
	}
	return a
}

func runTSQR(g *grid.Grid, global *matrix.Dense, offsets []int, cfg core.Config) *matrix.Dense {
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var r, q *matrix.Dense
	start := time.Now()
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := core.Input{M: global.Rows, N: global.Cols, Offsets: offsets,
			Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := core.Factorize(comm, in, cfg)
		var qf *matrix.Dense
		if cfg.WantQ {
			qf = scalapack.Collect(comm, res.QLocal, offsets, global.Cols)
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			r, q = res.R, qf
			mu.Unlock()
		}
	})
	report(w, "TSQR", start)
	ref := core.FactorizeLocal(global, 0)
	lapack.NormalizeRSigns(ref, nil)
	lapack.NormalizeRSigns(r, q)
	fmt.Printf("max |R - R_seq| = %.3g\n", maxTriuDiff(r, ref))
	if cfg.WantQ {
		fmt.Printf("‖I - QᵀQ‖_F   = %.3g\n", matrix.OrthoError(q))
		fmt.Printf("‖A - QR‖/‖A‖  = %.3g\n", matrix.ResidualQR(global, q, r))
	}
	return r
}

func runCAQR(g *grid.Grid, global *matrix.Dense, offsets []int, nb int) *matrix.Dense {
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var r *matrix.Dense
	start := time.Now()
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := core.Input{M: global.Rows, N: global.Cols, Offsets: offsets,
			Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := core.CAQRFactorize(comm, in, core.CAQRConfig{NB: nb})
		if ctx.Rank() == 0 {
			mu.Lock()
			r = res.R
			mu.Unlock()
		}
	})
	report(w, "CAQR", start)
	ref := core.FactorizeLocal(global, nb)
	lapack.NormalizeRSigns(ref, nil)
	lapack.NormalizeRSigns(r, nil)
	fmt.Printf("max |R - R_seq| = %.3g\n", maxTriuDiff(r, ref))
	return r
}

func runCholQR(g *grid.Grid, global *matrix.Dense, offsets []int) *matrix.Dense {
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var r, q *matrix.Dense
	failed := false
	start := time.Now()
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := core.Input{M: global.Rows, N: global.Cols, Offsets: offsets,
			Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		res := core.CholeskyQR(comm, in)
		if !res.OK {
			if ctx.Rank() == 0 {
				mu.Lock()
				failed = true
				mu.Unlock()
			}
			return
		}
		qf := scalapack.Collect(comm, res.QLocal, offsets, global.Cols)
		if ctx.Rank() == 0 {
			mu.Lock()
			r, q = res.R, qf
			mu.Unlock()
		}
	})
	report(w, "CholeskyQR", start)
	if failed {
		fmt.Println("CholeskyQR FAILED: Gram matrix numerically indefinite (matrix too ill-conditioned)")
		return nil
	}
	fmt.Printf("‖I - QᵀQ‖_F   = %.3g (grows with cond²; use tsqr for stability)\n", matrix.OrthoError(q))
	fmt.Printf("‖A - QR‖/‖A‖  = %.3g\n", matrix.ResidualQR(global, q, r))
	return r
}

func runTSLU(g *grid.Grid, global *matrix.Dense, offsets []int, tree core.Tree) *matrix.Dense {
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var res *core.TSLUResult
	var lfull *matrix.Dense
	start := time.Now()
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := core.Input{M: global.Rows, N: global.Cols, Offsets: offsets,
			Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		r := core.TSLUFactorize(comm, in, core.TSLUConfig{Tree: tree})
		lf := scalapack.Collect(comm, r.LLocal, offsets, global.Cols)
		if ctx.Rank() == 0 {
			mu.Lock()
			res, lfull = r, lf
			mu.Unlock()
		}
	})
	report(w, "TSLU", start)
	var worst float64
	for i := 0; i < global.Rows; i++ {
		for j := 0; j < global.Cols; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += lfull.At(i, k) * res.U.At(k, j)
			}
			if d := math.Abs(s - global.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	fmt.Printf("max |A - L·U| = %.3g, max |L| = %.3g\n", worst, res.MaxL)
	return res.U
}

// runLstsq solves min‖Ax−b‖ for a synthesized right-hand side with a
// known solution, and reports the recovery error.
func runLstsq(g *grid.Grid, global *matrix.Dense, offsets []int, tree core.Tree, seed int64) *matrix.Dense {
	m, n := global.Rows, global.Cols
	xTrue := matrix.Random(n, 1, seed+1)
	b := matrix.New(m, 1)
	blas.Dgemv(blas.NoTrans, 1, global, xTrue.Col(0), 0, b.Col(0))
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var x *matrix.Dense
	var resid []float64
	start := time.Now()
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := core.Input{M: m, N: n, Offsets: offsets,
			Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		bl := scalapack.Distribute(b, offsets, ctx.Rank())
		xs, rs := core.LeastSquares(comm, in, bl, core.Config{Tree: tree})
		if ctx.Rank() == 0 {
			mu.Lock()
			x, resid = xs, rs
			mu.Unlock()
		}
	})
	report(w, "least squares", start)
	worst := 0.0
	for j := 0; j < n; j++ {
		if d := math.Abs(x.At(j, 0) - xTrue.At(j, 0)); d > worst {
			worst = d
		}
	}
	fmt.Printf("max |x - x_true| = %.3g, residual = %.3g (consistent system)\n", worst, resid[0])
	return x
}

func runBaseline(g *grid.Grid, global *matrix.Dense, offsets []int) {
	w := mpi.NewWorld(g)
	start := time.Now()
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := scalapack.Input{M: global.Rows, N: global.Cols, Offsets: offsets,
			Local: scalapack.Distribute(global, offsets, ctx.Rank())}
		scalapack.PDGEQR2(comm, in)
	})
	report(w, "ScaLAPACK-style baseline", start)
}

func report(w *mpi.World, name string, start time.Time) {
	c := w.Counters()
	fmt.Printf("%s done in %v (%d messages, %d inter-cluster)\n",
		name, time.Since(start).Round(time.Microsecond), c.Total().Msgs, c.Inter().Msgs)
}

func maxTriuDiff(a, b *matrix.Dense) float64 {
	var worst float64
	for j := 0; j < a.Cols; j++ {
		for i := 0; i <= j && i < a.Rows; i++ {
			if d := math.Abs(a.At(i, j) - b.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tsqr: "+format+"\n", args...)
	os.Exit(2)
}
