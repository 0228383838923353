package blas

import (
	"fmt"
	"testing"

	"gridqr/internal/matrix"
)

// BenchmarkSkinny is the measurement behind gemm's skinny dispatch
// (DESIGN.md "Kernel architecture" has its table): the two products of a
// block reflector, C2 −= V2·W and W = V2ᵀ·C2, on the skinny kernels and
// forced through the packed engine — at the leaf's inner widths on a
// fold block and a tree leaf, at the 64-wide blocks of the Q side, and
// under a wide C. V2 and C2 are views of one taller parent with leading
// dimension ld, as a fold block sees them. The _avx2 cases switch the
// 512-bit twins off; on a CPU without AVX-512F they repeat the plain ones.
func BenchmarkSkinny(b *testing.B) {
	for _, sh := range []struct{ rows, k, n, ld int }{
		{4096, 4, 60, 1 << 18}, {4096, 8, 56, 1 << 18}, {4096, 16, 48, 1 << 18}, {4096, 16, 48, 4096 + 8},
		{4096, 32, 32, 1 << 18}, {4096, 64, 64, 1 << 18}, {4096, 64, 4096, 4096},
		{124, 4, 60, 128}, {112, 16, 48, 128},
	} {
		parent := matrix.New(sh.ld, sh.k+sh.n)
		matrix.Copy(parent.View(0, 0, sh.rows, sh.k+sh.n), matrix.Random(sh.rows, sh.k+sh.n, 1))
		v := parent.View(0, 0, sh.rows, sh.k)
		c := parent.View(0, sh.k, sh.rows, sh.n)
		w := matrix.Random(sh.k, sh.n, 2)
		fl := 2 * float64(sh.rows) * float64(sh.k) * float64(sh.n)
		for _, kc := range []struct {
			name string
			run  func()
		}{
			// α tiny: C2 is updated in place b.N times.
			{"nn", func() { gemm(NoTrans, NoTrans, -1e-9, v, w, 1, c) }},
			{"nn_avx2", func() {
				defer setWideKernel(setWideKernel(false))
				gemm(NoTrans, NoTrans, -1e-9, v, w, 1, c)
			}},
			{"nn_packed", func() { gemmPacked(NoTrans, NoTrans, -1e-9, v, w, 1, c) }},
			{"tn", func() { gemm(Trans, NoTrans, 1, v, c, 0, w) }},
			{"tn_avx2", func() {
				defer setWideKernel(setWideKernel(false))
				gemm(Trans, NoTrans, 1, v, c, 0, w)
			}},
			{"tn_packed", func() { gemmPacked(Trans, NoTrans, 1, v, c, 0, w) }},
		} {
			b.Run(fmt.Sprintf("%dx%dx%d_ld%d/%s", sh.rows, sh.k, sh.n, sh.ld, kc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kc.run()
				}
				b.ReportMetric(fl*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
			})
		}
	}
}
