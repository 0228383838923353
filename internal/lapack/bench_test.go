package lapack

import (
	"fmt"
	"math"
	"testing"

	"gridqr/internal/blas"
	"gridqr/internal/flops"
	"gridqr/internal/matrix"
)

func BenchmarkDgeqr2(b *testing.B) {
	m, n := 4096, 32
	a := matrix.Random(m, n, 1)
	f := matrix.New(m, n)
	tau := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.Copy(f, a)
		Dgeqr2(f, tau)
	}
	b.ReportMetric(flops.GEQRF(m, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

func BenchmarkDgeqrf(b *testing.B) {
	// The 64-column heights are a tree leaf's and a fold block's: DESIGN.md
	// "Panel kernels" quotes them.
	for _, tc := range []struct{ m, n, nb int }{
		{1 << 14, 64, 32}, {1 << 13, 256, 64},
		{128, 64, 0}, {256, 64, 0}, {512, 64, 0}, {1024, 64, 0}, {4096, 64, 0},
	} {
		b.Run(fmt.Sprintf("%dx%d_nb%d", tc.m, tc.n, tc.nb), func(b *testing.B) {
			a := matrix.Random(tc.m, tc.n, 2)
			f := matrix.New(tc.m, tc.n)
			tau := make([]float64, tc.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matrix.Copy(f, a)
				Dgeqrf(f, tau, tc.nb)
			}
			b.ReportMetric(flops.GEQRF(tc.m, tc.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}

func BenchmarkDtpqrt2(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			r1 := randTriu(n, 1)
			r2 := randTriu(n, 2)
			f1 := matrix.New(n, n)
			f2 := matrix.New(n, n)
			tau := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matrix.Copy(f1, r1)
				matrix.Copy(f2, r2)
				Dtpqrt2(f1, f2, tau)
			}
			b.ReportMetric(flops.StackQR(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}

func BenchmarkDormqr(b *testing.B) {
	m, k, n := 1<<13, 64, 64
	a := matrix.Random(m, k, 3)
	tau := make([]float64, k)
	Dgeqrf(a, tau, 0)
	c := matrix.Random(m, n, 4)
	scratch := matrix.New(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.Copy(scratch, c)
		Dormqr(blas.Trans, a, tau, scratch, 0)
	}
}

func BenchmarkDorgqr(b *testing.B) {
	m, n := 1<<13, 64
	a := matrix.Random(m, n, 5)
	tau := make([]float64, n)
	Dgeqrf(a, tau, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dorgqr(a, tau, n)
	}
}

func BenchmarkDgetf2(b *testing.B) {
	m, n := 4096, 32
	a := matrix.Random(m, n, 6)
	f := matrix.New(m, n)
	ipiv := make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.Copy(f, a)
		Dgetf2(f, ipiv)
	}
	b.ReportMetric(flops.GETF2(m, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

func BenchmarkDpotrf(b *testing.B) {
	n := 128
	base := matrix.Random(2*n, n, 7)
	spd := matrix.New(n, n)
	blas.Dsyrk(blas.Trans, 1, base, 0, spd)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+1)
	}
	f := matrix.New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.Copy(f, spd)
		if !Dpotrf(f) {
			b.Fatal("not SPD")
		}
	}
}

// BenchmarkDtpqrtBlockedVsUnblocked is the measurement behind
// stackQRPanel (DESIGN.md "Panel kernels" has the table): the stacked
// triangles' QR by the column-wise Dtpqrt2 and by Dtpqrt at each panel
// width, over the orders a reduction tree, a fold and CAQR's panels merge
// at.
func BenchmarkDtpqrtBlockedVsUnblocked(b *testing.B) {
	for _, n := range []int{8, 16, 32, 48, 64, 96, 112, 128, 256, 1024} {
		r1, r2 := randTriu(n, 1), randTriu(n, 2)
		f1, f2 := matrix.New(n, n), matrix.New(n, n)
		tau := make([]float64, n)
		for _, nb := range []int{0, 4, 8, 16, 32} {
			name := fmt.Sprintf("n%d/nb%d", n, nb)
			if nb == 0 {
				name = fmt.Sprintf("n%d/unblocked", n)
			} else if nb >= n {
				continue
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matrix.Copy(f1, r1)
					matrix.Copy(f2, r2)
					if nb == 0 {
						Dtpqrt2(f1, f2, tau)
					} else {
						Dtpqrt(f1, f2, tau, nb)
					}
				}
				b.ReportMetric(flops.StackQR(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
			})
		}
	}
}

// BenchmarkBlockReflectorCrossover is the measurement behind
// blockReflectorPays (DESIGN.md "Panel kernels" has its table): the k
// rank-one sweeps of Dorm2r against the pieces of the compact-WY path —
// forming T, the dense block reflector and its seed-only form — over
// block heights at cols = k, over C's width at the two fold-block shapes,
// and over short blocks under a wide C. The dense applies are orthogonal
// and their time does not depend on the data, so C is not reset between
// iterations; the seed-only form contracts its top block, which is
// therefore put back each time (k×cols, against the rows×cols being
// timed) before it decays into denormals.
func BenchmarkBlockReflectorCrossover(b *testing.B) {
	type shape struct{ k, rows, cols int }
	var shapes []shape
	for _, k := range []int{16, 32, 48, 64, 96} {
		for _, rows := range []int{128, 256, 512, 1024, 2048, 3072, 4096, 6144, 8192, 16384} {
			shapes = append(shapes, shape{k, rows, k})
		}
	}
	for _, cols := range []int{1, 4, 16, 32, 128} {
		shapes = append(shapes, shape{64, 4096, cols}, shape{16, 16384, cols})
	}
	// CAQR's panels against N columns, and the tall side of those widths.
	for _, k := range []int{16, 32, 64} {
		for _, cols := range []int{256, 1024, 4096} {
			for _, rows := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
				shapes = append(shapes, shape{k, rows, cols})
			}
		}
	}
	for _, sh := range shapes {
		a := matrix.Random(sh.rows, sh.k, int64(sh.rows+sh.k))
		tau := make([]float64, sh.k)
		Dgeqrf(a, tau, 0)
		c := matrix.Random(sh.rows, sh.cols, 5)
		seed := c.View(0, 0, sh.k, sh.cols).Clone()
		t := matrix.New(sh.k, sh.k)
		Dlarft(a, tau, t)
		for _, kc := range []struct {
			name string
			run  func()
		}{
			{"dorm2r", func() { Dorm2r(blas.NoTrans, a, tau, c) }},
			{"larft", func() { Dlarft(a, tau, t) }},
			{"larfb", func() { larfb(blas.NoTrans, a, t, c, false) }},
			{"larfb_seed", func() {
				matrix.Copy(c.View(0, 0, sh.k, sh.cols), seed)
				larfb(blas.NoTrans, a, t, c, true)
			}},
		} {
			b.Run(fmt.Sprintf("k%d/rows%d/cols%d/%s", sh.k, sh.rows, sh.cols, kc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kc.run()
				}
			})
		}
	}
}

// BenchmarkPanelInnerWidth is the measurement behind geqr2NB (DESIGN.md
// "Panel kernels" has its table): panelQR at the fold block, the tree
// leaf and the narrow fold block, over the inner widths. Blocks are
// views of a taller parent, as FoldQR hands them over.
func BenchmarkPanelInnerWidth(b *testing.B) {
	defer func(nb int) { geqr2NB = nb }(geqr2NB)
	for _, sh := range [][2]int{{4096, 64}, {128, 64}, {4096, 16}} {
		m, n := sh[0], sh[1]
		a := matrix.Random(4*m, n, 9).View(m, 0, m, n)
		f := matrix.New(4*m, n).View(m, 0, m, n)
		tau := make([]float64, n)
		for _, nb := range []int{4, 8, 16, 32} {
			b.Run(fmt.Sprintf("%dx%d/nb%d", m, n, nb), func(b *testing.B) {
				geqr2NB = nb
				for i := 0; i < b.N; i++ {
					matrix.Copy(f, a)
					panelQR(f, tau)
				}
				b.ReportMetric(flops.GEQRF(m, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
			})
		}
	}
}

// BenchmarkLarftRoutes is the measurement behind larftGramMin
// (DESIGN.md "Panel kernels" has its table): Dlarft with the columns'
// cross-products taken column by column (Dgemv) or all at once over V2
// (Dsyrk), over block heights and widths.
func BenchmarkLarftRoutes(b *testing.B) {
	defer func(r int) { larftGramMin = r }(larftGramMin)
	for _, k := range []int{4, 8, 16, 32, 64} {
		for _, rows := range []int{128, 256, 512, 1024, 4096} {
			a := matrix.Random(rows, k, int64(rows+k))
			tau := make([]float64, k)
			Dgeqr2(a, tau)
			t := matrix.New(k, k)
			for _, route := range []struct {
				name string
				min  int
			}{{"dgemv", math.MaxInt}, {"dsyrk", 0}} {
				b.Run(fmt.Sprintf("k%d/rows%d/%s", k, rows, route.name), func(b *testing.B) {
					larftGramMin = route.min
					for i := 0; i < b.N; i++ {
						Dlarft(a, tau, t)
					}
				})
			}
		}
	}
}

// BenchmarkFoldWidthGuard is the measurement behind foldMinCols and
// foldMaxCols (DESIGN.md "Panel kernels" has its table): a leaf of the
// given size folded through FoldBlockRows(n)-row blocks against the same
// leaf as one Dgeqrf, over the widths on both sides of the guard.
func BenchmarkFoldWidthGuard(b *testing.B) {
	for _, mib := range []int{8, 32, 128} {
		for _, n := range []int{4, 8, 12, 16, 20, 24, 28, 32, 48, 64, 96, 112, 128, 192, 256} {
			m := mib << 20 / (8 * n)
			a := matrix.Random(m, n, 11)
			f := matrix.New(m, n)
			for _, kind := range []struct {
				name string
				rows int
			}{{"fold", FoldBlockRows(n)}, {"one", m}} {
				b.Run(fmt.Sprintf("%dMiB/n%d/%s", mib, n, kind.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						matrix.Copy(f, a)
						foldQR(f, kind.rows, 0, false)
					}
				})
			}
		}
	}
}
