package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readManifest(t *testing.T) manifest {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json to the tables the
// program reports from: the same workloads and metrics, in order, with
// the same units, directions and bounds.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmarks" {
		t.Errorf("paths %v, want [benchmarks]", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.Name)
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	match := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			unique(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
			}
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound must be in (0, 0.25] and equal on both sides, program %g", d.Name, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", d.Name)
			}
		}
	}
	match("end_to_end", m.EndToEnd, endToEnd, true)
	match("per_layer", m.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at smoke
// sizes and checks that each verifies its results and reports exactly
// the declared metric names.
func TestWorkloadsSmoke(t *testing.T) {
	start := time.Now()
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec := runWorkload(runConfig{
				Workload: w.Name, Seed: 5, Seconds: 0.1, Trace: traced, Smoke: true, TraceDir: dir,
			})
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
			}
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(resultLine(rec)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line has %d metrics, want %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := line.Metrics[d.Name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s traced=%v: result line lacks %s", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.Name, d.Name, m.Unit, d.Unit)
				case !traced && !(*m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, d.Name, *m.Value)
				}
			}
			// What the run printed by name is declared, and well formed.
			for _, name := range rec.metricNames() {
				if _, ok := findMetric(name); !ok || !nameRE.MatchString(name) {
					t.Errorf("%s: printed metric %q is undeclared or malformed", w.Name, name)
				}
			}
			if traced {
				if rec.Metrics["trace.overhead_ratio"].Value <= 0 {
					t.Errorf("%s: no trace.overhead_ratio", w.Name)
				}
				if _, err := os.Stat(filepath.Join(dir, w.Name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Logf("smoke runs took %v; the budget is 10 s on an idle host", el)
	}
}

func doc(values map[string]map[string][]float64) document {
	var d document
	for w, metrics := range values {
		n := 0
		for _, v := range metrics {
			n = len(v)
		}
		for i := 0; i < n; i++ {
			r := runRecord{Workload: w, Seed: int64(i), Metrics: make(map[string]metric)}
			for name, v := range metrics {
				r.Metrics[name] = metric{Value: v[i]}
			}
			d.Runs = append(d.Runs, r)
		}
	}
	return d
}

// TestCompareVerdicts checks direction, bound and unresolved on
// synthetic documents.
func TestCompareVerdicts(t *testing.T) {
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	old := doc(map[string]map[string][]float64{
		"factor_tall": {"latency_ms_p50": steady(100), "ops_per_s": steady(10), "gflops": steady(8), "setup_s": steady(1), "fail_ratio": {0, 0, 0, 0, 0}},
		"serve_open":  {"latency_ms_p50": steady(20), "ops_per_s": steady(35)},
	})
	new := doc(map[string]map[string][]float64{
		"factor_tall": {
			"latency_ms_p50": steady(130),           // lower is better, +30% > 25%: worse
			"ops_per_s":      steady(13),            // higher is better, +30%: better
			"gflops":         steady(7.5),           // higher is better, −6% within 25%: same
			"setup_s":        steady(1.2),           // +20% within 25%: same
			"fail_ratio":     {0, 0, 0.1, 0.1, 0.1}, // any increase: worse
		},
		"serve_open": {
			"latency_ms_p50": {10, 20, 30, 40, 50}, // spread beyond the bound: unresolved
			"ops_per_s":      steady(35),
		},
	})
	want := map[string]string{
		"factor_tall/latency_ms_p50": verdictWorse,
		"factor_tall/ops_per_s":      verdictBetter,
		"factor_tall/gflops":         verdictSame,
		"factor_tall/setup_s":        verdictSame,
		"factor_tall/fail_ratio":     verdictWorse,
		"serve_open/latency_ms_p50":  verdictUnresolved,
		"serve_open/ops_per_s":       verdictSame,
	}
	rows := compareDocs(old, new)
	if len(rows) != len(want) {
		t.Errorf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		key := r.Workload + "/" + r.Metric.Name
		if r.Verdict != want[key] {
			t.Errorf("%s: verdict %s, want %s (old %v new %v)", key, r.Verdict, want[key], r.Old, r.New)
		}
		if r.OldN != 5 || r.NewN != 5 {
			t.Errorf("%s: sample counts %d/%d, want 5/5", key, r.OldN, r.NewN)
		}
	}
	// The ratio is new over old, given with its base.
	for _, r := range rows {
		if r.Workload == "factor_tall" && r.Metric.Name == "ops_per_s" && (r.Ratio < 1.29 || r.Ratio > 1.31 || r.Old[1] != 10) {
			t.Errorf("ops_per_s ratio %g of base %g, want 1.3 of 10", r.Ratio, r.Old[1])
		}
	}
}

func TestQuartilesExclusiveMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartilesExclusive([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartilesExclusive([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two values: quartiles %g %g %g, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{Name: "parent", Start: ms(0), End: ms(10), Parent: noSpan},
		{Name: "a", Start: ms(2), End: ms(5), Parent: 0},
		{Name: "b", Start: ms(4), End: ms(7), Parent: 0},  // overlaps a on another lane
		{Name: "c", Start: ms(9), End: ms(12), Parent: 0}, // runs past the parent
		{Name: "grandchild", Start: ms(2), End: ms(3), Parent: 1},
	}
	self := selfTimes(spans)
	if self[0] != ms(4) { // 10 − [2,7] − [9,10]
		t.Errorf("parent self time %v, want 4ms", self[0])
	}
	if self[1] != ms(2) {
		t.Errorf("child self time %v, want 2ms", self[1])
	}
}

func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	for n, want := range map[int]float64{5: 50, 20: 50, 40: 75, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := highestPercentile(n); got != want {
			t.Errorf("n=%d: p%g, want p%g", n, got, want)
		}
	}
}
