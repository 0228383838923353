//go:build amd64

package blas

import "gridqr/internal/cpuid"

// haveAsmKernel reports whether the AVX2+FMA micro-kernel can run
// (cpuid.AVX2FMA, checked once at start-up).
func haveAsmKernel() bool { return cpuid.AVX2FMA() }

// microKernelAsm accumulates acc[j*mr+i] = Σ_p ap[p*mr+i]·bp[p*nr+j]
// over kc steps of the packed strips, using four ymm accumulators (one
// per C column) and fused multiply-adds. Implemented in kernel_amd64.s.
//
//go:noescape
func microKernelAsm(kc int, ap, bp *float64, acc *[mr * nr]float64)
