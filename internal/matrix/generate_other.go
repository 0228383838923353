//go:build !amd64

package matrix

// haveAsmKernel reports whether an assembly generator exists for this
// architecture; only amd64 has one.
func haveAsmKernel() bool { return false }

// fillColAsm is never called when haveAsmKernel reports false.
func fillColAsm(dst *float64, n int, r, step, c uint64) {
	panic("matrix: no assembly generator on this architecture")
}
