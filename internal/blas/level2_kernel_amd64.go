//go:build amd64

package blas

// AVX2+FMA level-2 kernels, implemented in level2_kernel_amd64.s. They
// share the CPUID/XGETBV gate of the GEMM micro-kernel (cpuid.AVX2FMA):
// useAsmKernel selects them, so setAsmKernel flips the whole BLAS
// between the assembly and portable paths at once.
//
// Numerical contract: each assembly kernel computes bitwise the same
// result as its Go mirror in level2_fallback.go. Both use fused
// multiply-adds (math.FMA on the Go side) over an identical lane
// decomposition and reduction order, so the choice of path never changes
// a single bit of output (asserted by TestLevel2AsmMatchesGoBitwise).

// ddotAsm returns xᵀy over n elements: two 4-lane FMA chains over 8-element
// blocks, one 4-lane block, lanewise merge, (l0+l2)+(l1+l3) reduction,
// then sequential scalar FMAs over the tail.
//
//go:noescape
func ddotAsm(n int, x, y *float64) float64

// daxpyAsm computes y[i] = fma(alpha, x[i], y[i]) for i < n.
//
//go:noescape
func daxpyAsm(n int, alpha float64, x, y *float64)

// dscalAsm computes x[i] *= alpha for i < n.
//
//go:noescape
func dscalAsm(n int, alpha float64, x *float64)

// dgemvT4Asm accumulates out[c] = Σ_i a_c[i]·x[i] for the four columns
// c = 0..3 at a + c·lda (lda in elements), sharing each 4-wide load of x.
// Per-column reduction order matches ddotAsm's single-chain form.
//
//go:noescape
func dgemvT4Asm(m, lda int, a, x *float64, out *[4]float64)

// dgemvN4Asm computes y[i] += Σ_c f[c]·a_c[i] with the column FMAs chained
// in order c = 0, 1, 2, 3 per element.
//
//go:noescape
func dgemvN4Asm(m, lda int, a *float64, f *[4]float64, y *float64)

// dger4Asm computes a_c[i] = fma(f[c], x[i], a_c[i]) for the four columns
// at a + c·lda, reading x once per 4-element block.
//
//go:noescape
func dger4Asm(m, lda int, a *float64, f *[4]float64, x *float64)
