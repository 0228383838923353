package blas

import (
	"runtime"
	"sync"

	"gridqr/internal/matrix"
)

// The packed GEMM engine. One call decomposes C into MC×NC macro-tiles;
// each tile is an independent task that owns a disjoint region of C and
// runs the classic Goto loop nest over it:
//
//	for pc over k in steps of KC:          (rank-KC updates)
//	    pack op(B)[pc, jc-panel] → L3-resident buffer
//	    pack op(A)[ic-panel, pc] → L2-resident buffer
//	    for jr over NC in steps of nr:     (macro-kernel)
//	        for ir over MC in steps of mr:
//	            micro4x4: mr×nr registers × kc
//
// Determinism: the assignment of C regions to tasks and the loop order
// inside a task depend only on the shapes and the tune parameters, never
// on the worker count or scheduling — every element of C is written by
// exactly one task, with a fixed accumulation order over pc. Output is
// therefore bitwise identical for any number of workers (asserted by
// TestDgemmDeterministicAcrossWorkers).
//
// The price of per-task packing is that a B panel shared by several
// ic-tiles is packed once per tile instead of once per jc — O(KC·NC)
// duplicated copies against O(MC·NC·KC) flops per tile, i.e. a 1/MC
// overhead, which measures below noise for the committed MC.

// engine is the persistent worker pool that runs macro-tile tasks.
// Workers are started lazily on the first parallel Dgemm and live for
// the process; per-call goroutine spawning is replaced by one channel
// send per macro-tile.
var engine struct {
	mu    sync.Mutex
	size  int // configured worker count; 0 → GOMAXPROCS at first use
	tasks chan func()
}

// SetWorkers resizes the engine's worker pool to n goroutines (n < 1
// resets to GOMAXPROCS at next use). It must not be called concurrently
// with running Dgemm calls; it exists for tests and for embedders that
// pin BLAS parallelism independently of GOMAXPROCS. The kernel output
// does not depend on the worker count.
func SetWorkers(n int) {
	engine.mu.Lock()
	defer engine.mu.Unlock()
	if engine.tasks != nil {
		close(engine.tasks) // workers drain buffered tasks, then exit
		engine.tasks = nil
	}
	if n < 1 {
		n = 0
	}
	engine.size = n
}

// Workers reports the engine's configured worker count (GOMAXPROCS if
// SetWorkers was never called).
func Workers() int {
	engine.mu.Lock()
	defer engine.mu.Unlock()
	if engine.size > 0 {
		return engine.size
	}
	return runtime.GOMAXPROCS(0)
}

// taskQueue returns the live task channel, starting the workers on first
// use or after a SetWorkers reconfiguration.
func taskQueue() chan func() {
	engine.mu.Lock()
	defer engine.mu.Unlock()
	if engine.tasks == nil {
		n := engine.size
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		engine.tasks = make(chan func(), 2*n)
		for i := 0; i < n; i++ {
			go func(q chan func()) {
				for f := range q {
					f()
				}
			}(engine.tasks)
		}
	}
	return engine.tasks
}

// gemmPacked runs C = alpha·op(A)·op(B) + beta·C through the packed
// engine. Any m, n, k ≥ 1 is valid; ragged edges are handled by the
// packers' zero padding.
func gemmPacked(ta, tb Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	m, n := c.Rows, c.Cols
	k, _ := opShape(tb, b)
	mc, nc := tune.MC, tune.NC
	tilesI := (m + mc - 1) / mc
	tilesJ := (n + nc - 1) / nc
	tiles := tilesI * tilesJ
	if tiles == 1 {
		gemmTile(ta, tb, alpha, a, b, beta, c, 0, m, 0, n, k)
		return
	}
	// The tasks outlive nothing, but they cross a channel, so what they
	// capture lives on the heap: they get copies of the three headers,
	// and a caller's operands — views built for this one call, mostly —
	// stay on its stack, through Dgemm and everything above it.
	av, bv, cv := *a, *b, *c
	run := func(ti, tj int) {
		i0 := ti * mc
		j0 := tj * nc
		gemmTile(ta, tb, alpha, &av, &bv, beta, &cv, i0, min(mc, m-i0), j0, min(nc, n-j0), k)
	}
	q := taskQueue()
	var wg sync.WaitGroup
	wg.Add(tiles)
	for ti := 0; ti < tilesI; ti++ {
		for tj := 0; tj < tilesJ; tj++ {
			ti, tj := ti, tj
			task := func() {
				defer wg.Done()
				run(ti, tj)
			}
			select {
			case q <- task:
			default:
				// Queue full (or workers busy): the caller lends a
				// hand instead of blocking, which also keeps the
				// engine live-locked-free under concurrent Dgemm
				// calls from many goroutines.
				task()
			}
		}
	}
	wg.Wait()
}

// gemmTile computes the mc×nc macro-tile of C at (i0, j0): the pc loop,
// packing, and macro-kernel for one task's disjoint region of C.
func gemmTile(ta, tb Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, i0, mc, j0, nc, k int) {
	// beta is applied exactly once per tile, before the rank-KC
	// accumulation; beta == 0 overwrites so stale NaN/Inf never leak.
	for j := 0; j < nc; j++ {
		cj := c.Col(j0 + j)[i0 : i0+mc]
		if beta == 0 {
			for i := range cj {
				cj[i] = 0
			}
		} else if beta != 1 {
			for i := range cj {
				cj[i] *= beta
			}
		}
	}
	if alpha == 0 || k == 0 {
		return
	}
	kcMax := tune.KC
	stripsA := (mc + mr - 1) / mr
	stripsB := (nc + nr - 1) / nr
	apBuf := getPack(stripsA * mr * kcMax)
	bpBuf := getPack(stripsB * nr * kcMax)
	defer putPack(apBuf)
	defer putPack(bpBuf)
	for pc := 0; pc < k; pc += kcMax {
		kc := min(kcMax, k-pc)
		ap := (*apBuf)[:stripsA*mr*kc]
		bp := (*bpBuf)[:stripsB*nr*kc]
		packA(ta, a, i0, pc, mc, kc, ap)
		packB(tb, b, pc, j0, kc, nc, bp)
		macroKernel(alpha, ap, bp, kc, c, i0, mc, j0, nc)
	}
}

// macroKernel sweeps the packed panels: every nr-strip of B against
// every mr-strip of A, one micro-kernel call per register tile.
func macroKernel(alpha float64, ap, bp []float64, kc int, c *matrix.Dense, i0, mc, j0, nc int) {
	ld := c.Stride
	for jt := 0; jt*nr < nc; jt++ {
		bStrip := bp[jt*nr*kc : (jt+1)*nr*kc]
		nrEff := min(nr, nc-jt*nr)
		colBase := (j0 + jt*nr) * ld
		for it := 0; it*mr < mc; it++ {
			aStrip := ap[it*mr*kc : (it+1)*mr*kc]
			mrEff := min(mr, mc-it*mr)
			microKernel(kc, alpha, aStrip, bStrip, c.Data[colBase+i0+it*mr:], ld, mrEff, nrEff)
		}
	}
}
