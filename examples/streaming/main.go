// Streaming: out-of-core TSQR with O(N²) memory.
//
// The flat-tree TSQR recurrence (the out-of-core QR of the paper's §II-C
// related work) digests an endless row stream block by block: here ten
// million samples of a noisy linear model flow through a stream.Folder
// that never holds more than a few KB of state.
//
// Streaming least squares for free: accumulate the augmented matrix
// [A | b]. Its R factor ends as [R c; 0 ρ], so x = R⁻¹·c is the
// least-squares fit and |ρ| is exactly ‖A·x − b‖ — one pass, no second
// look at the data.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"gridqr/internal/blas"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/stream"
)

const (
	totalRows = 10_000_000
	chunk     = 8192
	features  = 6
	noise     = 0.05
)

func main() {
	truth := []float64{0.3, -1.2, 2.5, 0.8, -0.4, 1.1}
	acc := stream.NewFolder(features+1, 0) // [A | b]
	fmt.Printf("streaming: %d rows × %d features through a TSQR fold\n",
		totalRows, features)
	fmt.Printf("           memory footprint: one %d×%d triangle + one %d-row panel\n\n",
		features+1, features+1, acc.PanelRows())

	rng := rand.New(rand.NewSource(7))
	block := matrix.New(chunk, features+1)
	start := time.Now()
	for done := 0; done < totalRows; done += chunk {
		rows := min(chunk, totalRows-done)
		for i := 0; i < rows; i++ {
			y := 0.0
			for f := 0; f < features; f++ {
				v := rng.NormFloat64()
				block.Set(i, f, v)
				y += truth[f] * v
			}
			block.Set(i, features, y+noise*rng.NormFloat64())
		}
		acc.Push(block.View(0, 0, rows, features+1))
	}
	elapsed := time.Since(start)

	raug := acc.SnapshotLocal()
	lapack.NormalizeRSigns(raug, nil)
	r := raug.View(0, 0, features, features)
	x := make([]float64, features)
	for f := 0; f < features; f++ {
		x[f] = raug.At(f, features)
	}
	blas.Dtrsv(blas.NoTrans, r.Clone(), x)
	rho := math.Abs(raug.At(features, features))

	fmt.Printf("consumed %d rows in %v (%.1f M rows/s)\n\n",
		acc.Rows(), elapsed.Round(time.Millisecond),
		float64(acc.Rows())/elapsed.Seconds()/1e6)
	fmt.Printf("%10s %12s %12s %12s\n", "feature", "true", "fitted", "error")
	worst := 0.0
	for f := 0; f < features; f++ {
		e := math.Abs(x[f] - truth[f])
		if e > worst {
			worst = e
		}
		fmt.Printf("%10d %12.6f %12.6f %12.2e\n", f, truth[f], x[f], e)
	}
	fmt.Printf("\nstreamed residual |ρ| = %.3f (pure noise would give σ·√M = %.3f)\n",
		rho, noise*math.Sqrt(totalRows))
	fmt.Printf("design conditioning (1-norm estimate from streamed R): %.2f\n",
		lapack.CondEst1(r.Clone()))
	fmt.Printf("max coefficient error %.2e\n", worst)
}
