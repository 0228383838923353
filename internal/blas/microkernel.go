package blas

// The inner kernel of the packed GEMM engine: one mr×nr register tile of
// C accumulated over the shared dimension kc, reading mr resp. nr
// contiguous elements per k-step from the packed strips (pack.go). Zero
// padding at ragged edges keeps the k-loop branch-free; mrEff×nrEff
// bounds only the merge into C.
//
// Two implementations share the strip layout:
//
//   - microKernelAsm (kernel_amd64.s): AVX2+FMA, the C tile held in four
//     ymm accumulators, selected at init when CPUID reports FMA+AVX2 and
//     the OS saves ymm state. This is the GotoBLAS-style fast path the
//     paper's stack leaned on.
//   - microKernelGo (below): portable pure Go. The tile is split into
//     two 2×4 halves so each half's 8 accumulators (plus the 6 live
//     loads) fit the 16 scalar FP registers of amd64/arm64 — a single
//     4×4 block measures ~30% slower because the gc back end spills.
//
// Both run the k-loop in the same order for every tile, so each C
// element's accumulation order is fixed by shape and tuning alone —
// worker count and kernel scheduling never change the result.

// useAsmKernel selects the assembly micro-kernel; resolved once at init,
// overridden only by tests (setAsmKernel) and the tuning sweep.
var useAsmKernel = haveAsmKernel()

// setAsmKernel switches the assembly fast path on or off, reporting the
// previous setting; on=true is ignored on platforms without the asm
// kernel. Test-only: not safe concurrently with running kernels.
func setAsmKernel(on bool) (prev bool) {
	prev = useAsmKernel
	useAsmKernel = on && haveAsmKernel()
	return prev
}

// useWideKernel selects, within the assembly path, the 512-bit twins of
// the two skinny kernels: resolved once at init from CPUID
// (haveWideKernel), overridden only by tests (setWideKernel). A twin
// returns its AVX2 kernel's result bit for bit, so this picks a speed,
// never an output. The packed engine's micro-kernel and levels 1 and 2
// have no twin.
var useWideKernel = haveWideKernel()

// setWideKernel switches the 512-bit twins on or off, reporting the
// previous setting; on=true is ignored on CPUs without AVX-512F, and the
// twins run only while useAsmKernel is on. Test-only, like setAsmKernel.
func setWideKernel(on bool) (prev bool) {
	prev = useWideKernel
	useWideKernel = on && haveWideKernel()
	return prev
}

// KernelSet names the kernel set this process runs: "avx512" (the
// 512-bit twins and the AVX2 kernels without one), "avx2" or "go".
func KernelSet() string {
	switch {
	case !useAsmKernel:
		return "go"
	case useWideKernel:
		return "avx512"
	}
	return "avx2"
}

// microKernel computes the mr×nr tile product and merges alpha times the
// result into C at c[0] with column stride ldc.
func microKernel(kc int, alpha float64, ap, bp []float64, c []float64, ldc, mrEff, nrEff int) {
	var acc [mr * nr]float64
	if useAsmKernel {
		microKernelAsm(kc, &ap[0], &bp[0], &acc)
	} else {
		microKernelGo(kc, ap, bp, &acc)
	}
	if mrEff == mr && nrEff == nr {
		c0 := c[0*ldc : 0*ldc+4 : 0*ldc+4]
		c1 := c[1*ldc : 1*ldc+4 : 1*ldc+4]
		c2 := c[2*ldc : 2*ldc+4 : 2*ldc+4]
		c3 := c[3*ldc : 3*ldc+4 : 3*ldc+4]
		c0[0] += alpha * acc[0]
		c0[1] += alpha * acc[1]
		c0[2] += alpha * acc[2]
		c0[3] += alpha * acc[3]
		c1[0] += alpha * acc[4]
		c1[1] += alpha * acc[5]
		c1[2] += alpha * acc[6]
		c1[3] += alpha * acc[7]
		c2[0] += alpha * acc[8]
		c2[1] += alpha * acc[9]
		c2[2] += alpha * acc[10]
		c2[3] += alpha * acc[11]
		c3[0] += alpha * acc[12]
		c3[1] += alpha * acc[13]
		c3[2] += alpha * acc[14]
		c3[3] += alpha * acc[15]
		return
	}
	for j := 0; j < nrEff; j++ {
		cj := c[j*ldc:]
		for i := 0; i < mrEff; i++ {
			cj[i] += alpha * acc[j*mr+i]
		}
	}
}

// microKernelGo is the portable micro-kernel: the 4×4 tile as two 2×4
// halves, each a register-resident pass over the packed strips. acc is
// column-major: acc[j*mr+i].
func microKernelGo(kc int, ap, bp []float64, acc *[mr * nr]float64) {
	var c00, c10, c01, c11, c02, c12, c03, c13 float64
	ia, ib := 0, 0
	for p := 0; p < kc; p++ {
		a0, a1 := ap[ia], ap[ia+1]
		b0, b1, b2, b3 := bp[ib], bp[ib+1], bp[ib+2], bp[ib+3]
		ia += 4
		ib += 4
		c00 += a0 * b0
		c10 += a1 * b0
		c01 += a0 * b1
		c11 += a1 * b1
		c02 += a0 * b2
		c12 += a1 * b2
		c03 += a0 * b3
		c13 += a1 * b3
	}
	var c20, c30, c21, c31, c22, c32, c23, c33 float64
	ia, ib = 2, 0
	for p := 0; p < kc; p++ {
		a2, a3 := ap[ia], ap[ia+1]
		b0, b1, b2, b3 := bp[ib], bp[ib+1], bp[ib+2], bp[ib+3]
		ia += 4
		ib += 4
		c20 += a2 * b0
		c30 += a3 * b0
		c21 += a2 * b1
		c31 += a3 * b1
		c22 += a2 * b2
		c32 += a3 * b2
		c23 += a2 * b3
		c33 += a3 * b3
	}
	*acc = [mr * nr]float64{
		c00, c10, c20, c30,
		c01, c11, c21, c31,
		c02, c12, c22, c32,
		c03, c13, c23, c33,
	}
}
