// Package cpuid reports the processor features the assembly kernels of
// internal/blas and internal/matrix need, checked once for both.
package cpuid

// AVX2FMA reports whether the AVX2+FMA kernels can run: CPUID must
// advertise FMA, AVX and AVX2, and the OS must save xmm+ymm state
// (OSXSAVE + XCR0). Always false off amd64.
func AVX2FMA() bool { return avx2FMA }
