//go:build amd64

package matrix

import "gridqr/internal/cpuid"

// haveAsmKernel reports whether fillColAsm can run: it uses AVX2 integer
// lanes, under the same CPU check as internal/blas's kernels.
func haveAsmKernel() bool { return cpuid.AVX2FMA() }

// fillColAsm is fillCol's loop four rows at a time, for n a positive
// multiple of 4. Implemented in generate_amd64.s.
//
//go:noescape
func fillColAsm(dst *float64, n int, r, step, c uint64)
