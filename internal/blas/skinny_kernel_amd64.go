//go:build amd64

package blas

// AVX2+FMA register kernels of the skinny GEMM path, implemented in
// skinny_kernel_amd64.s and selected by useAsmKernel together with the
// micro-kernel and level 2. Each computes bitwise the same result as its
// Go mirror in skinny.go (asserted by TestSkinnyAsmMatchesGoBitwise).

// gemmNN8x4Asm computes C[0:8·tiles, 0:nc] = α·A·B + β·C for nc ≤ 4
// columns and a k-column A (leading dimensions in elements): per element
// one FMA chain over l from zero, then fma(α, s, β·c), or α·s stored
// without reading C when β = 0.
//
//go:noescape
func gemmNN8x4Asm(tiles, k int, a *float64, lda int, b *float64, ldb int, c *float64, ldc, nc int, alpha, beta float64)

// gemmTN4x3Asm adds α times the dot products over 4·steps rows of the
// columns a0..a3 with the columns b0..b2 into the 4×3 tile at c: four
// lane-wise FMA chains per element, folded (l0+l1)+(l2+l3).
//
//go:noescape
func gemmTN4x3Asm(steps int, a0, a1, a2, a3, b0, b1, b2, c *float64, ldc int, alpha float64)

// gemmNN16x4Asm512 is gemmNN8x4Asm on tiles of up to sixteen rows in
// zmm registers (AVX-512F, selected by useWideKernel), cut so that C's
// cache lines are whole, with masked first and last tiles: every
// element's FMA chain and merge are the AVX2 kernel's, so are its bits.
//
//go:noescape
func gemmNN16x4Asm512(tiles, k int, a *float64, lda int, b *float64, ldb int, c *float64, ldc, nc int, alpha, beta float64)

// gemmTN4x3Asm512 is gemmTN4x3Asm with two columns of A per zmm
// register: each 256-bit half of an accumulator is exactly one of the
// AVX2 kernel's ymm accumulators, and the fold is that kernel's.
//
//go:noescape
func gemmTN4x3Asm512(steps int, a0, a1, a2, a3, b0, b1, b2, c *float64, ldc int, alpha float64)
