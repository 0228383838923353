package blas

import (
	"fmt"
	"math"
	"testing"

	"gridqr/internal/matrix"
)

// The level-2 rewrite (4-column fused kernels with asm/Go dispatch) is
// locked down three ways: table tests over degenerate shapes against the
// textbook refs on both kernel paths, a bitwise asm↔Go-mirror equality
// test, and the differential fuzzers in fuzz_test.go.

// kernelPath is one kernel set the tests run: the portable Go mirrors
// ("go"), the AVX2 kernels ("asm"), or the AVX2 kernels with their
// 512-bit twins ("avx512").
type kernelPath struct {
	name      string
	asm, wide bool
}

// kernelPaths lists the kernel sets this CPU can run, the Go mirrors
// first. Without AVX-512F the wide set is missing, and t says so: the
// tests still run every other set rather than skip.
func kernelPaths(t testing.TB) []kernelPath {
	t.Helper()
	paths := []kernelPath{{name: "go"}}
	if haveAsmKernel() {
		paths = append(paths, kernelPath{name: "asm", asm: true})
	}
	if haveWideKernel() {
		paths = append(paths, kernelPath{name: "avx512", asm: true, wide: true})
	} else {
		t.Log("no AVX-512F on this CPU: the 512-bit twins were not exercised")
	}
	return paths
}

// use switches the package to p's kernel set and returns the function
// that restores the previous one.
func (p kernelPath) use() (restore func()) {
	asm, wide := setAsmKernel(p.asm), setWideKernel(p.wide)
	return func() { setAsmKernel(asm); setWideKernel(wide) }
}

// forEachKernelPath runs f once per kernel set of kernelPaths, as a
// subtest named after it.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, p := range kernelPaths(t) {
		t.Run(p.name, func(t *testing.T) {
			defer p.use()()
			f(t)
		})
	}
}

// sameBits fails t at the first element where got and want differ in
// any bit, NaN payloads included.
func sameBits(t testing.TB, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d]=%x want %x", label, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// matchesGo runs f on every kernel set of paths and asserts that each
// returns the bits of the first, the Go mirrors.
func matchesGo(t testing.TB, paths []kernelPath, label string, f func() []float64) {
	t.Helper()
	var want []float64
	for _, p := range paths {
		restore := p.use()
		got := f()
		restore()
		if want == nil {
			want = got
			continue
		}
		sameBits(t, label+" "+p.name+" vs go", got, want)
	}
}

// unalignedView returns an m×n view whose leading dimension exceeds its
// row count by pad, so column bases land on odd element offsets.
func unalignedView(m, n, pad int, seed int64) *matrix.Dense {
	full := matrix.Random(m+pad, n, seed)
	return full.View(pad/2, 0, m, n)
}

func TestDgemvTable(t *testing.T) {
	dims := []int{0, 1, 3, 4, 5, 7, 8, 9}
	scalars := []float64{0, 1, -1, 0.5}
	forEachKernelPath(t, func(t *testing.T) {
		seed := int64(1)
		for _, m := range dims {
			for _, n := range dims {
				for _, pad := range []int{0, 3} {
					a := unalignedView(m, n, pad, seed)
					seed++
					for _, trans := range []Transpose{NoTrans, Trans} {
						xn, yn := n, m
						if trans == Trans {
							xn, yn = m, n
						}
						x := matrix.Random(xn, 1, seed).Col(0)
						y0 := matrix.Random(yn, 1, seed+1).Col(0)
						seed += 2
						for _, alpha := range scalars {
							for _, beta := range scalars {
								want := append([]float64(nil), y0...)
								gemvRef(trans, alpha, a, x, beta, want)
								got := append([]float64(nil), y0...)
								Dgemv(trans, alpha, a, x, beta, got)
								for i := range want {
									if d := math.Abs(got[i] - want[i]); d > 1e-13*float64(xn+1) || math.IsNaN(d) {
										t.Fatalf("m=%d n=%d pad=%d trans=%v alpha=%g beta=%g: y[%d]=%g want %g",
											m, n, pad, trans, alpha, beta, i, got[i], want[i])
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

func TestDgerTable(t *testing.T) {
	dims := []int{0, 1, 3, 4, 5, 7, 8, 9}
	forEachKernelPath(t, func(t *testing.T) {
		seed := int64(100)
		for _, m := range dims {
			for _, n := range dims {
				for _, pad := range []int{0, 3} {
					for _, alpha := range []float64{0, 1, -1, 0.5} {
						a := unalignedView(m, n, pad, seed) // kernel sees the padded lda
						x := matrix.Random(m, 1, seed+1).Col(0)
						y := matrix.Random(n, 1, seed+2).Col(0)
						seed += 3
						if m == 0 {
							Dger(alpha, x, y, a) // must not panic on empty views
							continue
						}
						want := a.Clone()
						gerRef(alpha, x, y, want)
						Dger(alpha, x, y, a)
						if d := maxAbsDiff(a.Clone(), want); d > 1e-13*float64(m+n+1) || math.IsNaN(d) {
							t.Fatalf("m=%d n=%d pad=%d alpha=%g: max diff %g", m, n, pad, alpha, d)
						}
					}
				}
			}
		}
	})
}

// TestLevel2AsmMatchesGoBitwise asserts the numerical contract of
// level2_kernel_amd64.go: on every kernel set the assembly kernels and
// their Go mirrors agree bit for bit, so kernel dispatch never changes
// results.
func TestLevel2AsmMatchesGoBitwise(t *testing.T) {
	if !haveAsmKernel() {
		t.Skip("no asm kernel on this CPU")
	}
	paths := kernelPaths(t)
	for _, m := range []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 33, 127, 4096} {
		for _, n := range []int{0, 1, 3, 4, 5, 8, 11} {
			a := matrix.Random(m+3, n, int64(m*100+n)).View(1, 0, m, n)
			x := matrix.Random(m, 1, int64(m+n)).Col(0)
			xn := matrix.Random(n, 1, int64(m-n)).Col(0)
			y0 := matrix.Random(m, 1, int64(m*n+7)).Col(0)
			label := func(kernel string) string { return fmt.Sprintf("%s m=%d n=%d", kernel, m, n) }
			matchesGo(t, paths, label("Ddot"), func() []float64 {
				return []float64{Ddot(x, y0)}
			})
			matchesGo(t, paths, label("Daxpy"), func() []float64 {
				y := append([]float64(nil), y0...)
				Daxpy(0.75, x, y)
				return y
			})
			matchesGo(t, paths, label("Dscal"), func() []float64 {
				y := append([]float64(nil), y0...)
				Dscal(-1.25, y)
				return y
			})
			matchesGo(t, paths, label("DgemvN"), func() []float64 {
				y := append([]float64(nil), y0...)
				Dgemv(NoTrans, 1.25, a, xn, 0.5, y)
				return y
			})
			matchesGo(t, paths, label("DgemvT"), func() []float64 {
				y := append([]float64(nil), xn...)
				Dgemv(Trans, -0.5, a, x, 1, y)
				return y
			})
			if m > 0 { // Clone of a 0×n view has no backing columns
				matchesGo(t, paths, label("Dger"), func() []float64 {
					g := a.Clone()
					Dger(1.5, x, xn, g)
					return g.Data
				})
			}
		}
	}
}
