//go:build !amd64

package cpuid

const (
	avx2FMA = false
	avx512F = false
)
