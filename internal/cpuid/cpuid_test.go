package cpuid

import "testing"

// TestAVX512FImpliesAVX2FMA: the wide kernels are twins of the AVX2
// ones and fall back to them, so the wider set never stands alone.
func TestAVX512FImpliesAVX2FMA(t *testing.T) {
	if AVX512F() && !AVX2FMA() {
		t.Fatal("AVX512F reported without AVX2FMA")
	}
	t.Logf("AVX2FMA=%v AVX512F=%v", AVX2FMA(), AVX512F())
}
