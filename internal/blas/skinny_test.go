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
// both sides of skinnyDim. The tests enter through gemmSmall, which
// hands every size to the skinny kernels; gemm would send the largest to
// the packed engine.
func skinnyShapes(f func(m, n, k int)) {
	for _, m := range []int{1, 7, 8, 9, 16, 23, 65} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 12} {
			for _, k := range []int{1, 4, 8, 16, 37, 64, 131, 262} {
				f(m, n, k)
			}
		}
	}
}

func TestSkinnyTable(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		skinnyShapes(func(m, n, k int) {
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
// skinny_kernel_amd64.go: the assembly kernels and their Go mirrors
// agree bit for bit, edges and scratch tiles included.
func TestSkinnyAsmMatchesGoBitwise(t *testing.T) {
	if !haveAsmKernel() {
		t.Skip("no asm kernel on this CPU")
	}
	skinnyShapes(func(m, n, k int) {
		for _, ta := range []Transpose{NoTrans, Trans} {
			for _, beta := range []float64{0, 1, 0.5} {
				run := func(asm bool) *matrix.Dense {
					defer setAsmKernel(setAsmKernel(asm))
					a, b, c := skinnyOperands(ta, m, n, k, int64(m*n+k))
					gemmSmall(ta, NoTrans, -1.5, a, b, beta, c, 0, n)
					return c.Clone()
				}
				asm, goRes := run(true), run(false)
				for i := range asm.Data {
					if math.Float64bits(asm.Data[i]) != math.Float64bits(goRes.Data[i]) {
						t.Fatalf("ta=%v m=%d n=%d k=%d beta=%g: asm[%d]=%x go[%d]=%x", ta, m, n, k, beta,
							i, math.Float64bits(asm.Data[i]), i, math.Float64bits(goRes.Data[i]))
					}
				}
			}
		}
	})
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
// at once, ragged edges included: the path keeps its scratch on the
// caller's stack, so nothing is shared. Run under -race by `make race`.
func TestSkinnyConcurrentCallers(t *testing.T) {
	m, n, k := 203, 13, 16
	want := map[Transpose]*matrix.Dense{}
	ops := map[Transpose][2]*matrix.Dense{}
	for _, ta := range []Transpose{NoTrans, Trans} {
		a, b, c := skinnyOperands(ta, m, n, k, 5)
		gemmRef(ta, NoTrans, 1, a, b, 0, c)
		want[ta], ops[ta] = c.Clone(), [2]*matrix.Dense{a, b}
	}
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
