//go:build amd64

package cpuid

var avx2FMA = supported()

// supported is implemented in cpuid_amd64.s.
func supported() bool
