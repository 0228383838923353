//go:build !amd64

package blas

// Stubs for platforms without the assembly skinny kernels; useAsmKernel
// is never true there, so they exist only to keep the package compiling.

func gemmNN8x4Asm(tiles, k int, a *float64, lda int, b *float64, ldb int, c *float64, ldc, nc int, alpha, beta float64) {
	panic("blas: no asm kernel")
}

func gemmTN4x3Asm(steps int, a0, a1, a2, a3, b0, b1, b2, c *float64, ldc int, alpha float64) {
	panic("blas: no asm kernel")
}
