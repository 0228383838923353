package bench

import (
	"strings"
	"testing"
)

func TestCompareKern(t *testing.T) {
	base := KernReport{Procs: 1, Results: []KernResult{
		{Name: "dgemm_256", NsPerOp: 1000},
		{Name: "dtrsm", NsPerOp: 500},
	}}
	// Within tolerance (and faster) passes.
	got := []KernResult{{Name: "dgemm_256", NsPerOp: 1200}, {Name: "dtrsm", NsPerOp: 100}}
	if diffs := CompareKern(got, base, 0.30); len(diffs) != 0 {
		t.Fatalf("unexpected diffs: %v", diffs)
	}
	// A >30% regression fails.
	got[0].NsPerOp = 1400
	diffs := CompareKern(got, base, 0.30)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "dgemm_256") {
		t.Fatalf("want one dgemm_256 regression, got %v", diffs)
	}
	// A silently dropped kernel fails.
	diffs = CompareKern(got[:1], base, 0.50)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "dtrsm") {
		t.Fatalf("want one missing-kernel diff, got %v", diffs)
	}
	// Extra measured kernels are fine.
	got = append(got[:1], KernResult{Name: "dtrsm", NsPerOp: 500}, KernResult{Name: "new_kernel", NsPerOp: 1})
	if diffs := CompareKern(got, base, 0.50); len(diffs) != 0 {
		t.Fatalf("extra kernel must not fail the gate: %v", diffs)
	}
}

// TestKernSetShape pins the standard kernel set: names stay stable (the
// gate matches by name) and every case carries a flop count where one is
// defined — everywhere but the row generator.
func TestKernSetShape(t *testing.T) {
	cases := kernSet()
	want := []string{"dgemm_256", "dgemm_512", "dgemm_tall_16384x64",
		"dgemm_nn_4096x16x48", "dgemm_tn_4096x16x48", "dtrsm_right_1024x64",
		"dgeqrf_4096x64", "dgeqrf_128x64", "dgemv_4096x64", "dger_4096x64", "stackqr_n64",
		"fold_8192x64", "leaf_65536x64", "leaf_131072x16", "leaf_131072x4", "leaf_16384x256",
		"foldq_expand_131072x64", "dormqr_4096x64", "dormqr_512x64", "dorgqr_65536x64",
		"randomrows_8192x64"}
	if len(cases) != len(want) {
		t.Fatalf("kernel set has %d cases, want %d", len(cases), len(want))
	}
	for i, w := range want {
		if cases[i].name != w {
			t.Fatalf("case %d named %q, want %q", i, cases[i].name, w)
		}
		if cases[i].flops <= 0 && w != "randomrows_8192x64" {
			t.Fatalf("case %q has no flop count", w)
		}
	}
}

// TestReadKernReportKernels: a report names the kernel set it ran; one
// written before reports did (results/KERNBENCH.json) ran AVX2.
func TestReadKernReportKernels(t *testing.T) {
	for doc, want := range map[string]string{
		`{"procs": 1, "results": []}`:                      "avx2",
		`{"procs": 1, "kernels": "avx512", "results": []}`: "avx512",
		`{"procs": 1, "kernels": "go", "results": []}`:     "go",
	} {
		rep, err := ReadKernReport(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kernels != want {
			t.Errorf("%s: kernels %q, want %q", doc, rep.Kernels, want)
		}
	}
}
