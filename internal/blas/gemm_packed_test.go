package blas

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"gridqr/internal/matrix"
)

// withTune runs f under the given tuning parameters, restoring the
// committed ones afterwards. Tests in this package run sequentially, so
// mutating the package globals is safe.
func withTune(p TuneParams, f func()) {
	old := tune
	tune = p
	defer func() { tune = old }()
	f()
}

// smallTune forces many macro-tiles, several pc iterations and ragged
// strip edges even on tiny operands, so the table tests cross every
// boundary in the engine.
var smallTune = TuneParams{MC: 8, KC: 8, NC: 8}

func maxAbsDiff(a, b *matrix.Dense) float64 {
	var d float64
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			d = math.Max(d, math.Abs(ca[i]-cb[i]))
		}
	}
	return d
}

// TestGemmPackedTable drives gemmPacked directly (bypassing the size
// dispatch) over degenerate and ragged shapes, all four transpose
// combinations and the three beta classes, against the textbook
// reference — once per available micro-kernel implementation.
func TestGemmPackedTable(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {1, 1, 9}, {2, 3, 4}, {3, 3, 3},
		{4, 4, 4}, {5, 5, 5}, {4, 1, 7}, {1, 4, 7},
		{7, 4, 4}, {8, 8, 8}, {13, 11, 9}, {16, 16, 16},
		{33, 29, 31}, {40, 37, 64}, {64, 3, 5}, {3, 64, 5},
		{5, 5, 0}, {17, 2, 19},
	}
	kernels := []bool{false}
	if haveAsmKernel() {
		kernels = append(kernels, true)
	}
	for _, asm := range kernels {
		prev := setAsmKernel(asm)
		withTune(smallTune, func() {
			for _, sh := range shapes {
				m, n, k := sh[0], sh[1], sh[2]
				for _, ta := range []Transpose{NoTrans, Trans} {
					for _, tb := range []Transpose{NoTrans, Trans} {
						for _, beta := range []float64{0, 1, 0.5} {
							a := matrix.Random(m, k, 1)
							b := matrix.Random(k, n, 2)
							if ta == Trans {
								a = matrix.Random(k, m, 1)
							}
							if tb == Trans {
								b = matrix.Random(n, k, 2)
							}
							c := matrix.Random(m, n, 3)
							want := c.Clone()
							gemmRef(ta, tb, 1.25, a, b, beta, want)
							gemmPacked(ta, tb, 1.25, a, b, beta, c)
							tol := 1e-13 * float64(k+1)
							if d := maxAbsDiff(c, want); d > tol {
								t.Fatalf("asm=%v m=%d n=%d k=%d ta=%v tb=%v beta=%g: max diff %g",
									asm, m, n, k, ta, tb, beta, d)
							}
						}
					}
				}
			}
		})
		setAsmKernel(prev)
	}
}

// TestGemmPackedBetaZeroClearsNaN: beta == 0 must overwrite, not scale,
// so a C tile full of NaN comes out clean.
func TestGemmPackedBetaZeroClearsNaN(t *testing.T) {
	a := matrix.Random(12, 7, 1)
	b := matrix.Random(7, 9, 2)
	c := matrix.New(12, 9)
	for j := 0; j < 9; j++ {
		cj := c.Col(j)
		for i := range cj {
			cj[i] = math.NaN()
		}
	}
	want := matrix.New(12, 9)
	gemmRef(NoTrans, NoTrans, 1, a, b, 0, want)
	withTune(smallTune, func() {
		gemmPacked(NoTrans, NoTrans, 1, a, b, 0, c)
	})
	if d := maxAbsDiff(c, want); math.IsNaN(d) || d > 1e-12 {
		t.Fatalf("NaN leaked through beta=0: max diff %v", d)
	}
}

// TestDgemmDeterministicAcrossWorkers asserts the engine's central
// contract: C is bitwise identical for any worker-pool size, because
// tile ownership and accumulation order depend only on shape and tuning.
func TestDgemmDeterministicAcrossWorkers(t *testing.T) {
	defer SetWorkers(0)
	a := matrix.Random(97, 71, 5)
	b := matrix.Random(71, 83, 6)
	run := func(workers int) *matrix.Dense {
		SetWorkers(workers)
		c := matrix.Random(97, 83, 7)
		withTune(TuneParams{MC: 16, KC: 16, NC: 16}, func() {
			gemmPacked(NoTrans, NoTrans, 1.5, a, b, 0.5, c)
		})
		return c
	}
	ref := run(1)
	for _, w := range []int{4, 8} {
		got := run(w)
		for j := 0; j < ref.Cols; j++ {
			rj, gj := ref.Col(j), got.Col(j)
			for i := range rj {
				if rj[i] != gj[i] {
					t.Fatalf("workers=%d: C[%d,%d] = %x differs from serial %x",
						w, i, j, gj[i], rj[i])
				}
			}
		}
	}
}

// TestDgemmColumnChunkInvariance asserts that computing C in column
// chunks of any width gives bitwise the same columns as one wide call.
// The ScaLAPACK lookahead variant drains trailing updates in chunks and
// its tests require bitwise equality with the blocking path, so the
// kernel dispatch must never depend on n (gemm.go).
func TestDgemmColumnChunkInvariance(t *testing.T) {
	type shape struct {
		ta   Transpose
		m, k int
	}
	shapes := []shape{{NoTrans, 256, 64}, {NoTrans, 32, 16}, {NoTrans, 256, 128}, {Trans, 256, 128}} // the last two packed
	// The skinny kernels: every chunk width moves the 8×4 and 4×3 tiles
	// and their edges across the same columns.
	for _, k := range []int{1, 4, 8, 16, 64} {
		for _, m := range []int{64, 65, 71} {
			shapes = append(shapes, shape{NoTrans, m, k}, shape{Trans, k, 40*m + 3})
		}
	}
	for _, sh := range shapes {
		m, k := sh.m, sh.k
		n := 23
		a := matrix.Random(m, k, 1)
		if sh.ta == Trans {
			a = matrix.Random(k, m, 1)
		}
		b := matrix.Random(k, n, 2)
		whole := matrix.Random(m, n, 3)
		init := whole.Clone()
		Dgemm(sh.ta, NoTrans, 1.5, a, b, 0.5, whole)
		for _, w := range []int{1, 2, 3, 5, 7} {
			chunked := init.Clone()
			for j0 := 0; j0 < n; j0 += w {
				wj := w
				if j0+wj > n {
					wj = n - j0
				}
				Dgemm(sh.ta, NoTrans, 1.5, a, b.View(0, j0, k, wj), 0.5, chunked.View(0, j0, m, wj))
			}
			for j := 0; j < n; j++ {
				cw, cc := whole.Col(j), chunked.Col(j)
				for i := range cw {
					if cw[i] != cc[i] {
						t.Fatalf("ta=%v m=%d k=%d chunk=%d: C[%d,%d] %x != %x (whole)",
							sh.ta, m, k, w, i, j, cc[i], cw[i])
					}
				}
			}
		}
	}
}

// TestDgemmConcurrentCallers runs many simultaneous Dgemm calls through
// the shared worker pool (exercising the caller-runs overflow path) and
// checks every result. Run under -race by `make race`.
func TestDgemmConcurrentCallers(t *testing.T) {
	a := matrix.Random(96, 48, 1)
	b := matrix.Random(48, 80, 2)
	want := matrix.New(96, 80)
	gemmRef(NoTrans, NoTrans, 1, a, b, 0, want)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := matrix.New(96, 80)
			Dgemm(NoTrans, NoTrans, 1, a, b, 0, c)
			if d := maxAbsDiff(c, want); d > 1e-11 {
				errs <- fmt.Errorf("concurrent Dgemm diverged: max diff %g", d)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestGemmDispatchThreshold pins the dispatch rule: the packed engine
// must engage based on m·k only, never n, and m below a register strip
// stays on the sweep kernel.
func TestGemmDispatchThreshold(t *testing.T) {
	if got := gemmPackMinMK; got != 1<<12 {
		t.Fatalf("committed dispatch threshold changed: %v", got)
	}
	// m < mr: sweep path regardless of size (packed needs a full strip).
	a := matrix.Random(3, 512, 1)
	b := matrix.Random(512, 200, 2)
	c := matrix.New(3, 200)
	Dgemm(NoTrans, NoTrans, 1, a, b, 0, c) // must not panic, must be right
	want := matrix.New(3, 200)
	gemmRef(NoTrans, NoTrans, 1, a, b, 0, want)
	if d := maxAbsDiff(c, want); d > 1e-10 {
		t.Fatalf("thin-m Dgemm wrong: max diff %g", d)
	}
}
