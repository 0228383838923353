//go:build !amd64

package blas

// haveAsmKernel reports whether an assembly micro-kernel exists for this
// architecture. Only amd64 has one; everything else runs the portable
// Go kernel, which shares the packed-strip layout exactly.
func haveAsmKernel() bool { return false }

// haveWideKernel: no 512-bit twins off amd64 either.
func haveWideKernel() bool { return false }

// microKernelAsm is never called when haveAsmKernel reports false; the
// stub keeps the dispatch in microkernel.go portable.
func microKernelAsm(kc int, ap, bp *float64, acc *[mr * nr]float64) {
	panic("blas: no assembly micro-kernel on this architecture")
}
