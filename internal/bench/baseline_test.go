package bench

import (
	"os"
	"testing"
)

// TestEveryConditionalGateCanFire: a check the perf gate applies only
// under a precondition must have that precondition true on at least one
// row of the committed baseline, at the rank ceiling the PR gate uses —
// otherwise it is a gate that cannot fire on what CI compares against.
func TestEveryConditionalGateCanFire(t *testing.T) {
	f, err := os.Open("../../results/BENCH_10.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sections(want, want, Tolerances{ScaleMaxRanks: 4096}.withDefaults()) {
		for _, name := range s.idle() {
			t.Errorf("%s: precondition holds on no baseline row", name)
		}
	}
	if d := CompareReports(want, want, Tolerances{ScaleMaxRanks: 4096}); len(d) != 0 {
		t.Errorf("baseline drifts from itself: %v", d)
	}
}
