package blas

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"gridqr/internal/matrix"
)

// The skinny path is locked down like level 2: a table over its tile
// edges, strides and scalars against gemmRef on both kernel paths, a
// bitwise asm↔Go-mirror equality test, β = 0 over a NaN-filled C, many
// concurrent callers under -race, and the column-chunk and fuzz tests it
// shares with the packed engine (gemm_packed_test.go, fuzz_test.go).

// skinnyOperands builds op(A) m×k, B k×n and C m×n as views with odd row
// offsets and leading dimensions, so tiles start off any alignment.
func skinnyOperands(ta Transpose, m, n, k int, seed int64) (a, b, c *matrix.Dense) {
	if ta == NoTrans {
		a = matrix.Random(m+3, k, seed).View(1, 0, m, k)
	} else {
		a = matrix.Random(k+3, m, seed).View(2, 0, k, m)
	}
	b = matrix.Random(k+5, n, seed+1).View(3, 0, k, n)
	c = matrix.Random(m+2, n, seed+2).View(1, 0, m, n)
	return a, b, c
}

// skinnyShapes crosses the edges of both register tiles: m mod 8 and
// n mod 4 for A·B, m mod 4, n mod 3 and k mod 4 for Aᵀ·B, and k and m on
// both sides of skinnyDim, for m in skinnyRows plus extra. The tests
// enter through gemmSmall, which hands every size to the skinny kernels;
// gemm would send the largest to the packed engine.
func skinnyShapes(extra []int, f func(m, n, k int)) {
	for _, m := range append([]int{1, 7, 8, 9, 16, 23, 65}, extra...) {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 12} {
			for _, k := range []int{1, 4, 8, 16, 37, 64, 131, 262} {
				f(m, n, k)
			}
		}
	}
}

// wideRows are the extra row counts of the bitwise test: 3 and 17
// 8-row tiles, so a row chunk ends in an odd tile after 16-row ones —
// the 512-bit A·B twin takes the pairs and hands that one to the AVX2
// kernel.
var wideRows = []int{24, 143}

func TestSkinnyTable(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		skinnyShapes(nil, func(m, n, k int) {
			for _, ta := range []Transpose{NoTrans, Trans} {
				for _, alpha := range []float64{1, -1, 0.5} {
					for _, beta := range []float64{0, 1, 0.5} {
						a, b, c := skinnyOperands(ta, m, n, k, int64(m+n+k))
						want := c.Clone()
						gemmRef(ta, NoTrans, alpha, a, b, beta, want)
						gemmSmall(ta, NoTrans, alpha, a, b, beta, c, 0, n)
						if d := maxAbsDiff(c.Clone(), want); d > 1e-13*float64(k+1) || math.IsNaN(d) {
							t.Fatalf("ta=%v m=%d n=%d k=%d alpha=%g beta=%g: max diff %g", ta, m, n, k, alpha, beta, d)
						}
					}
				}
			}
		})
	})
}

// TestSkinnyAsmMatchesGoBitwise asserts the contract of
// skinny_kernel_amd64.go: the assembly kernels, their 512-bit twins and
// their Go mirrors agree bit for bit — edge and scratch tiles, strided
// views, β = 0 over a NaN-filled C, and Dsyrk's upper-only tiles.
func TestSkinnyAsmMatchesGoBitwise(t *testing.T) {
	if !haveAsmKernel() {
		t.Skip("no asm kernel on this CPU")
	}
	paths := kernelPaths(t)
	skinnyShapes(wideRows, func(m, n, k int) {
		for _, ta := range []Transpose{NoTrans, Trans} {
			for _, beta := range []float64{0, 1, 0.5} {
				matchesGo(t, paths, fmt.Sprintf("ta=%v m=%d n=%d k=%d beta=%g", ta, m, n, k, beta), func() []float64 {
					a, b, c := skinnyOperands(ta, m, n, k, int64(m*n+k))
					if beta == 0 {
						for j := 0; j < n; j++ {
							cj := c.Col(j)
							for i := range cj {
								cj[i] = math.NaN()
							}
						}
					}
					gemmSmall(ta, NoTrans, -1.5, a, b, beta, c, 0, n)
					return c.Clone().Data
				})
			}
		}
	})
	// The A·B twin cuts its tiles at C's 64-byte boundaries: C starting
	// at every row offset of a line, with row counts around a tile.
	for off := 0; off < 8; off++ {
		for _, m := range []int{8, 16, 24, 40, 47} {
			matchesGo(t, paths, fmt.Sprintf("A·B off=%d m=%d", off, m), func() []float64 {
				p := matrix.Random(m+off+1, 9, int64(m+off))
				a, b, c := p.View(off, 0, m, 4), matrix.Random(4, 5, 3), p.View(off, 4, m, 5)
				gemmSmall(NoTrans, NoTrans, -1, a, b, 1, c, 0, 5)
				return p.Data
			})
		}
	}
	for _, n := range []int{1, 3, 4, 5, 13, 64, 70} {
		for _, k := range []int{1, 6, 300} {
			matchesGo(t, paths, fmt.Sprintf("Dsyrk n=%d k=%d", n, k), func() []float64 {
				a := matrix.Random(k+1, n, int64(n+k)).View(1, 0, k, n)
				c := matrix.Random(n, n, 3)
				Dsyrk(Trans, 0.5, a, 0.25, c)
				return c.Data
			})
		}
	}
}

// TestSkinnyBetaZeroClearsNaN: β = 0 must store, not scale — A·B never
// reads C at all, Aᵀ·B clears it first — so a NaN-filled C comes out
// clean on full tiles, edge tiles and the scratch copies alike.
func TestSkinnyBetaZeroClearsNaN(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		for _, ta := range []Transpose{NoTrans, Trans} {
			for _, sh := range [][3]int{{23, 7, 16}, {8, 4, 4}, {4, 3, 130}, {65, 5, 66}} {
				m, n, k := sh[0], sh[1], sh[2]
				a, b, c := skinnyOperands(ta, m, n, k, 9)
				for j := 0; j < n; j++ {
					cj := c.Col(j)
					for i := range cj {
						cj[i] = math.NaN()
					}
				}
				want := matrix.New(m, n)
				gemmRef(ta, NoTrans, 1, a, b, 0, want)
				gemmSmall(ta, NoTrans, 1, a, b, 0, c, 0, n)
				if d := maxAbsDiff(c.Clone(), want); math.IsNaN(d) || d > 1e-12 {
					t.Fatalf("ta=%v %dx%dx%d: NaN leaked through beta=0: max diff %v", ta, m, n, k, d)
				}
			}
		}
	})
}

// TestSkinnyConcurrentCallers runs 256 goroutines through both kernels
// at once, ragged edges included, on every kernel set in turn: the path
// keeps its scratch on the caller's stack or takes it from a pool, so
// nothing is shared. Run under -race by `make race`.
func TestSkinnyConcurrentCallers(t *testing.T) {
	m, n, k := 203, 13, 16
	want := map[Transpose]*matrix.Dense{}
	ops := map[Transpose][2]*matrix.Dense{}
	for _, ta := range []Transpose{NoTrans, Trans} {
		a, b, c := skinnyOperands(ta, m, n, k, 5)
		gemmRef(ta, NoTrans, 1, a, b, 0, c)
		want[ta], ops[ta] = c.Clone(), [2]*matrix.Dense{a, b}
	}
	forEachKernelPath(t, func(t *testing.T) {
		var wg sync.WaitGroup
		errs := make(chan error, 256)
		for g := 0; g < 256; g++ {
			ta := Transpose(g%2 == 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := matrix.New(m, n)
				Dgemm(ta, NoTrans, 1, ops[ta][0], ops[ta][1], 0, c)
				if d := maxAbsDiff(c, want[ta]); d > 1e-11 || math.IsNaN(d) {
					errs <- fmt.Errorf("concurrent skinny Dgemm ta=%v diverged: max diff %g", ta, d)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// TestKernelSet logs the kernel set CPUID selected — CI's kernels shard
// prints it beside the kernel gate — and checks the name against each
// set the tests switch to.
func TestKernelSet(t *testing.T) {
	t.Logf("kernel set: %s", KernelSet())
	name := map[string]string{"go": "go", "asm": "avx2", "avx512": "avx512"}
	for _, p := range kernelPaths(t) {
		restore := p.use()
		got := KernelSet()
		restore()
		if got != name[p.name] {
			t.Errorf("kernel path %s: KernelSet() = %q, want %q", p.name, got, name[p.name])
		}
	}
}

// TestDsyrkTransUpperOnly: the diagonal blocks of AᵀA run the upper
// tiles of the Aᵀ·B kernel; nothing under the diagonal may be written,
// whatever tile the diagonal crosses.
func TestDsyrkTransUpperOnly(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		for _, n := range []int{1, 3, 4, 5, 13, 32, 64, 70} {
			for _, k := range []int{1, 6, 300, 1027} {
				a := matrix.Random(k+1, n, int64(n+k)).View(1, 0, k, n)
				c := matrix.Random(n, n, 3)
				want := c.Clone()
				gemmRef(Trans, NoTrans, 0.5, a, a, 0.25, want)
				init := c.Clone()
				Dsyrk(Trans, 0.5, a, 0.25, c)
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						ref := want.At(i, j)
						if i > j {
							ref = init.At(i, j)
						}
						if d := math.Abs(c.At(i, j) - ref); d > 1e-13*float64(k+1) || math.IsNaN(d) {
							t.Fatalf("n=%d k=%d: C[%d,%d]=%g want %g", n, k, i, j, c.At(i, j), ref)
						}
					}
				}
			}
		}
	})
}
