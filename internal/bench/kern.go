package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"gridqr/internal/blas"
	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/stream"
)

// Wall-clock kernel benchmarks and their CI regression gate. Unlike the
// simulated gridbench numbers (exact, machine-independent, gated by
// CompareReports), these measure the real BLAS/LAPACK kernels on the
// runner, so the gate is deliberately loose: it fails only when a kernel
// gets more than ~30% slower than the committed results/KERNBENCH.json —
// enough slack for runner noise, tight enough to catch an accidental
// fall off the packed GEMM fast path.

// KernResult is one kernel benchmark measurement.
type KernResult struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	Gflops  float64 `json:"gflops"` // 0 when no flop count applies
}

// KernReport is the JSON document committed as results/KERNBENCH.json.
type KernReport struct {
	Procs   int          `json:"procs"` // GOMAXPROCS the numbers were taken at
	Results []KernResult `json:"results"`
}

// kernCase is one entry of the standard kernel set: a name, a flop count
// for the Gflop/s column, and a body run b.N times by testing.Benchmark.
type kernCase struct {
	name  string
	flops float64
	run   func(b *testing.B)
}

// kernSet builds the standard kernel benchmarks: the square and
// tall-skinny GEMM shapes the factorizations spend their time in, the
// triangular solve, and the blocked Householder panel factorization.
func kernSet() []kernCase {
	var cases []kernCase

	for _, n := range []int{256, 512} {
		n := n
		a := matrix.Random(n, n, 1)
		b2 := matrix.Random(n, n, 2)
		c := matrix.New(n, n)
		cases = append(cases, kernCase{
			name:  fmt.Sprintf("dgemm_%d", n),
			flops: flops.GEMM(n, n, n),
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					blas.Dgemm(blas.NoTrans, blas.NoTrans, 1, a, b2, 0, c)
				}
			},
		})
	}

	{
		m, n := 16384, 64
		a := matrix.Random(m, n, 3)
		b2 := matrix.Random(n, n, 4)
		c := matrix.New(m, n)
		cases = append(cases, kernCase{
			name:  fmt.Sprintf("dgemm_tall_%dx%d", m, n),
			flops: flops.GEMM(m, n, n),
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					blas.Dgemm(blas.NoTrans, blas.NoTrans, 1, a, b2, 0, c)
				}
			},
		})
	}

	// The two products of the leaf's block reflector at the shape larfb
	// hands them over — a 4096-row fold block, a 16-wide reflector block,
	// 48 trailing columns, all views of one tall panel: C2 −= V2·W and
	// W += V2ᵀ·C2. A fall off the skinny kernels back to the packed
	// engine is a factor of two to three here.
	{
		rows, k, n := 4096, 16, 48
		panel := matrix.Random(4*rows, k+n, 21)
		v, c2 := panel.View(rows, 0, rows, k), panel.View(rows, k, rows, n)
		w := matrix.Random(k, n, 22)
		cases = append(cases, kernCase{
			name:  fmt.Sprintf("dgemm_nn_%dx%dx%d", rows, k, n),
			flops: flops.GEMM(rows, n, k),
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					blas.Dgemm(blas.NoTrans, blas.NoTrans, -1e-9, v, w, 1, c2)
				}
			},
		}, kernCase{
			name:  fmt.Sprintf("dgemm_tn_%dx%dx%d", rows, k, n),
			flops: flops.GEMM(k, n, rows),
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					blas.Dgemm(blas.Trans, blas.NoTrans, 1, v, c2, 0, w)
				}
			},
		})
	}

	{
		n, m := 64, 1024
		u := matrix.Random(n, n, 5)
		for i := 0; i < n; i++ {
			u.Set(i, i, float64(n)+u.At(i, i))
		}
		rhs := matrix.Random(m, n, 6)
		work := matrix.New(m, n)
		cases = append(cases, kernCase{
			name:  fmt.Sprintf("dtrsm_right_%dx%d", m, n),
			flops: flops.TRSM(n, m, false),
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matrix.Copy(work, rhs)
					blas.Dtrsm(blas.Right, blas.NoTrans, false, 1, u, work)
				}
			},
		})
	}

	// The panel factorization at a fold block's height and at the 128-row
	// leaf of a many-domains tree, where per-panel fixed costs — views,
	// scratch, the narrow triangular multiplies — weigh most.
	for _, m := range []int{4096, 128} {
		n, nb := 64, 32
		a := matrix.Random(m, n, 7)
		work := matrix.New(m, n)
		tau := make([]float64, n)
		cases = append(cases, kernCase{
			name:  fmt.Sprintf("dgeqrf_%dx%d", m, n),
			flops: flops.GEQRF(m, n),
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matrix.Copy(work, a)
					lapack.Dgeqrf(work, tau, nb)
				}
			},
		})
	}

	// The level-2 kernels the panel factorizations lean on, at the tall
	// panel shape: a fall off the 4-column AVX2 path shows up here before
	// it shows up (diluted) in dgeqrf.
	{
		m, n := 4096, 64
		a := matrix.Random(m, n, 8)
		x := matrix.Random(m, 1, 9).Col(0)
		y := make([]float64, n)
		cases = append(cases, kernCase{
			name:  fmt.Sprintf("dgemv_%dx%d", m, n),
			flops: flops.GEMM(m, n, 1),
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					blas.Dgemv(blas.Trans, 1, a, x, 0, y)
				}
			},
		})
	}

	{
		m, n := 4096, 64
		a := matrix.Random(m, n, 10)
		x := matrix.Random(m, 1, 11).Col(0)
		y := matrix.Random(n, 1, 12).Col(0)
		cases = append(cases, kernCase{
			name:  fmt.Sprintf("dger_%dx%d", m, n),
			flops: flops.GEMM(m, n, 1),
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					blas.Dger(1e-7, x, y, a)
				}
			},
		})
	}

	// The TSQR reduction kernel at the paper's default panel width.
	{
		n := 64
		r1 := matrix.Random(n, n, 13)
		r2 := matrix.Random(n, n, 14)
		for j := 0; j < n; j++ {
			for i := j + 1; i < n; i++ {
				r1.Set(i, j, 0)
				r2.Set(i, j, 0)
			}
		}
		f1 := matrix.New(n, n)
		f2 := matrix.New(n, n)
		tau := make([]float64, n)
		cases = append(cases, kernCase{
			name:  fmt.Sprintf("stackqr_n%d", n),
			flops: flops.TPQRT2(n),
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matrix.Copy(f1, r1)
					matrix.Copy(f2, r2)
					lapack.StackQRInPlace(f1, f2, tau)
				}
			},
		})
	}

	// The fold kernel built on dgeqrf_4096x64 and stackqr_n64 above, at
	// its two call sites: a streamed block pushed into a warm folder (two
	// panels and their merges, copy included) and the TSQR leaf (R only,
	// factored in place). The leaf is timed on both sides of FoldQR's
	// width guard — blocked at 64 and 16 columns, one Dgeqrf at 4 and 256,
	// where cutting into blocks measured 2–5× slower — so widening the
	// guard shows up here.
	{
		m, n := 8192, 64
		block := matrix.Random(m, n, 15)
		folder := stream.NewFolder(n, 0)
		folder.Push(block)
		cases = append(cases, kernCase{
			name:  fmt.Sprintf("fold_%dx%d", m, n),
			flops: flops.GEQRF(m, n),
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					folder.Push(block)
				}
			},
		})
	}

	for _, s := range [][2]int{{65536, 64}, {131072, 16}, {131072, 4}, {16384, 256}} {
		m, n := s[0], s[1]
		a := matrix.Random(m, n, 16)
		work := matrix.New(m, n)
		cases = append(cases, kernCase{
			name:  fmt.Sprintf("leaf_%dx%d", m, n),
			flops: flops.GEQRF(m, n),
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matrix.Copy(work, a)
					lapack.FoldQR(work, 0, false)
				}
			},
		})
	}

	// The Q side. Expanding the identity through a recorded fold is the
	// leaf of explicit-Q TSQR (core.buildQ); its blocks are 4096×64, the
	// tall side of lapack's block-reflector rule. dormqr is timed at a
	// fold block's 4096 rows and at 512, the shortest block the rule
	// sends to a compact-WY block reflector (under it, as on every
	// 128×64 tree leaf, Dorm2r's rank-one sweeps) — so moving the floor
	// shows up here. Applying Q is orthogonal, so C needs no reset
	// between iterations. dorgqr is the one-shot tall explicit Q, 65536
	// rows out of cache.
	{
		m, n := 131072, 64
		_, q := lapack.FoldQR(matrix.Random(m, n, 17), 0, true)
		eye := matrix.Eye(n)
		cases = append(cases, kernCase{
			name:  fmt.Sprintf("foldq_expand_%dx%d", m, n),
			flops: flops.ORGQR(m, n),
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					q.Expand(eye)
				}
			},
		})
	}

	for _, m := range []int{4096, 512} {
		n := 64
		a := matrix.Random(m, n, 18)
		tau := make([]float64, n)
		lapack.Dgeqrf(a, tau, 0)
		c := matrix.Random(m, n, 19)
		cases = append(cases, kernCase{
			name:  fmt.Sprintf("dormqr_%dx%d", m, n),
			flops: flops.ORMQR(m, n, n),
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					lapack.Dormqr(blas.NoTrans, a, tau, c, 0)
				}
			},
		})
	}

	{
		m, n := 65536, 64
		a := matrix.Random(m, n, 20)
		tau := make([]float64, n)
		lapack.Dgeqrf(a, tau, 0)
		cases = append(cases, kernCase{
			name:  fmt.Sprintf("dorgqr_%dx%d", m, n),
			flops: flops.ORGQR(m, n),
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					lapack.Dorgqr(a, tau, n)
				}
			},
		})
	}

	// Row generation (matrix.FillRandomRows), the one touch of every row
	// a served rank or a stream round materializes. It moves no flops; a
	// fall from the 4-lane AVX2 generator to the Go loop is ≈ 1.5× here.
	{
		a := matrix.New(8192, 64)
		cases = append(cases, kernCase{
			name: "randomrows_8192x64",
			run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matrix.FillRandomRows(a, 0, 1, 5)
				}
			},
		})
	}

	return cases
}

// RunKernBench measures the standard kernel set with the testing
// package's benchmark harness (which picks b.N for stable timings) and
// returns one result per kernel.
func RunKernBench() []KernResult {
	cases := kernSet()
	results := make([]KernResult, 0, len(cases))
	for _, kc := range cases {
		r := testing.Benchmark(kc.run)
		ns := float64(r.NsPerOp())
		res := KernResult{Name: kc.name, NsPerOp: ns}
		if kc.flops > 0 && ns > 0 {
			res.Gflops = kc.flops / ns
		}
		results = append(results, res)
	}
	return results
}

// ReadKernReport parses a committed kernel baseline.
func ReadKernReport(r io.Reader) (KernReport, error) {
	var rep KernReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return KernReport{}, fmt.Errorf("bench: bad kernel baseline: %w", err)
	}
	return rep, nil
}

// CompareKern diffs measured kernel timings against the committed
// baseline: a kernel fails only when it is slower than baseline by more
// than the relative tolerance (faster is always fine, and baseline
// entries missing from the measurement fail — a silently dropped kernel
// must not pass). Extra measured kernels are allowed so new entries can
// land before the baseline is regenerated.
func CompareKern(got []KernResult, want KernReport, tol float64) []string {
	return rows[KernResult]{got, want.Results, func(r KernResult) string { return r.Name }, nil,
		[]check[KernResult]{{must: func(g, w KernResult) string {
			if limit := w.NsPerOp * (1 + tol); g.NsPerOp > limit {
				return fmt.Sprintf("%.0f ns/op vs baseline %.0f (>%.0f%% regression)",
					g.NsPerOp, w.NsPerOp, tol*100)
			}
			return ""
		}}},
	}.diff()
}
