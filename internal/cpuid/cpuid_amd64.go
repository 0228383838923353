//go:build amd64

package cpuid

var (
	avx2FMA = supported()
	avx512F = avx2FMA && supported512()
)

// supported and supported512 are implemented in cpuid_amd64.s.
func supported() bool
func supported512() bool
