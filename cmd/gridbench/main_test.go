package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildBench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gridbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func TestGridbenchFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildBench(t)
	for _, tc := range []struct {
		fig   string
		want  string
		whole bool // want is the figure's entire output, byte for byte
	}{
		{"3", "Orsay", false},
		{"table1", "TSQR", false},
		{"messages", "provable minimum", false},
		{"ablation", "binary-shuffled", false},
		{"faults", "kill-coordinator", false},
		{"trace", committedSection(t, "== Execution traces"), true},
	} {
		out, err := exec.Command(bin, "-fig", tc.fig).CombinedOutput()
		if err != nil {
			t.Fatalf("-fig %s: %v\n%s", tc.fig, err, out)
		}
		if tc.whole && string(out) != tc.want {
			t.Fatalf("-fig %s differs from results/gridbench_all.txt:\n got:\n%s\nwant:\n%s", tc.fig, out, tc.want)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Fatalf("-fig %s missing %q:\n%s", tc.fig, tc.want, out)
		}
	}
}

// committedSection returns the section of results/gridbench_all.txt
// that starts with the heading line beginning with heading, up to the
// next "==" heading.
func committedSection(t *testing.T, heading string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "results", "gridbench_all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	i := strings.Index(s, "\n"+heading)
	if i < 0 {
		t.Fatalf("no %q section in results/gridbench_all.txt", heading)
	}
	s = s[i+1:]
	if j := strings.Index(s[1:], "\n=="); j >= 0 {
		s = s[:j+2]
	}
	return s
}

func TestGridbenchCSVAndPlatform(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildBench(t)
	dir := t.TempDir()
	platform := filepath.Join(dir, "p.json")
	os.WriteFile(platform, []byte(`{
  "clusters": [
    {"name": "x", "nodes": 2, "procsPerNode": 2, "gflops": 3, "latencyMs": 0.05, "mbps": 900},
    {"name": "y", "nodes": 2, "procsPerNode": 2, "gflops": 3, "latencyMs": 0.05, "mbps": 900}
  ],
  "links": [{"from": "x", "to": "y", "latencyMs": 7, "mbps": 90}]
}`), 0o644)
	out, err := exec.Command(bin, "-fig", "7", "-quick", "-platform", platform, "-csv", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figure7.csv"))
	if err != nil {
		t.Fatal("CSV not written")
	}
	if !strings.HasPrefix(string(data), "panel,series,x,gflops,model_gflops") {
		t.Fatalf("bad CSV header:\n%s", data[:60])
	}
}

// TestGridbenchPerfGate exercises the CI gate end to end on a small
// platform: -json writes a baseline, -baseline passes against it, and a
// tampered baseline fails with a drift message.
func TestGridbenchPerfGate(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildBench(t)
	dir := t.TempDir()
	platform := filepath.Join(dir, "p.json")
	os.WriteFile(platform, []byte(`{
  "clusters": [
    {"name": "x", "nodes": 2, "procsPerNode": 2, "gflops": 3, "latencyMs": 0.05, "mbps": 900},
    {"name": "y", "nodes": 2, "procsPerNode": 2, "gflops": 3, "latencyMs": 0.05, "mbps": 900}
  ],
  "links": [{"from": "x", "to": "y", "latencyMs": 7, "mbps": 90}]
}`), 0o644)
	baseline := filepath.Join(dir, "bench.json")
	if out, err := exec.Command(bin, "-platform", platform, "-json", baseline).CombinedOutput(); err != nil {
		t.Fatalf("-json: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-platform", platform, "-baseline", baseline).CombinedOutput()
	if err != nil {
		t.Fatalf("gate failed against its own baseline: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "match within tolerance") {
		t.Fatalf("gate output:\n%s", out)
	}
	// Tamper with one message count: the gate must fail and say why.
	data, _ := os.ReadFile(baseline)
	tampered := strings.Replace(string(data), `"msgs": `, `"msgs": 1`, 1)
	if tampered == string(data) {
		t.Fatal("tamper failed to change the report")
	}
	os.WriteFile(baseline, []byte(tampered), 0o644)
	out, err = exec.Command(bin, "-platform", platform, "-baseline", baseline).CombinedOutput()
	if err == nil {
		t.Fatalf("gate passed a tampered baseline:\n%s", out)
	}
	if !strings.Contains(string(out), "msgs") || !strings.Contains(string(out), "regenerate") {
		t.Fatalf("drift output unhelpful:\n%s", out)
	}
}

// TestGridbenchOverlapFigure smoke-runs the overlap ablation table and
// the overlapped traced benchmark on a small platform.
func TestGridbenchOverlapFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildBench(t)
	dir := t.TempDir()
	platform := filepath.Join(dir, "p.json")
	os.WriteFile(platform, []byte(`{
  "clusters": [
    {"name": "x", "nodes": 2, "procsPerNode": 2, "gflops": 3, "latencyMs": 0.05, "mbps": 900},
    {"name": "y", "nodes": 2, "procsPerNode": 2, "gflops": 3, "latencyMs": 0.05, "mbps": 900}
  ],
  "links": [{"from": "x", "to": "y", "latencyMs": 7, "mbps": 90}]
}`), 0o644)
	out, err := exec.Command(bin, "-platform", platform, "-fig", "overlap").CombinedOutput()
	if err != nil {
		t.Fatalf("-fig overlap: %v\n%s", err, out)
	}
	for _, want := range []string{"TSQR overlapped", "ScaLAPACK lookahead", "inter wait (s)"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("-fig overlap missing %q:\n%s", want, out)
		}
	}
	out, err = exec.Command(bin, "-platform", platform, "-metrics", "-overlap").CombinedOutput()
	if err != nil {
		t.Fatalf("-metrics -overlap: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "TSQR (overlapped)") {
		t.Fatalf("-overlap not reflected in traced run header:\n%s", out)
	}
}

// TestValidateServeFlags tables the serving-flag matrix: scope
// violations and nonsense values are rejected with a clear error,
// coherent combinations pass.
func TestValidateServeFlags(t *testing.T) {
	base := serveFlags{arrival: "poisson", arrivals: 160, drainTimeout: 30e9}
	cases := []struct {
		name    string
		set     []string
		mutate  func(*serveFlags)
		wantErr string
	}{
		{name: "defaults", set: nil, mutate: func(f *serveFlags) {}},
		{name: "serve alone", set: []string{"serve"},
			mutate: func(f *serveFlags) { f.serve = true }},
		{name: "load alone", set: []string{"load"},
			mutate: func(f *serveFlags) { f.load = true }},
		{name: "serve with listen and drain", set: []string{"serve", "listen", "drain-timeout"},
			mutate: func(f *serveFlags) { f.serve = true; f.listen = "127.0.0.1:0" }},
		{name: "load with everything", set: []string{"load", "arrival", "rates", "arrivals", "queue-cap", "no-autoscale", "v"},
			mutate: func(f *serveFlags) {
				f.load, f.verbose, f.noAutoscale = true, true, true
				f.arrival, f.rates, f.arrivals, f.queueCap = "diurnal", "100, 2500", 40, 8
			}},
		{name: "drain-timeout without a serving mode", set: []string{"drain-timeout"},
			mutate: func(f *serveFlags) {}, wantErr: "-drain-timeout requires"},
		{name: "listen without a serving mode", set: []string{"listen"},
			mutate: func(f *serveFlags) { f.listen = "127.0.0.1:0" }, wantErr: "-listen requires"},
		{name: "v without a serving mode", set: []string{"v"},
			mutate: func(f *serveFlags) { f.verbose = true }, wantErr: "-v requires"},
		{name: "rates without load", set: []string{"serve", "rates"},
			mutate:  func(f *serveFlags) { f.serve = true; f.rates = "100" },
			wantErr: "-rates requires -load"},
		{name: "arrival without load", set: []string{"arrival"},
			mutate: func(f *serveFlags) { f.arrival = "bursty" }, wantErr: "-arrival requires -load"},
		{name: "nonpositive drain-timeout", set: []string{"serve", "drain-timeout"},
			mutate:  func(f *serveFlags) { f.serve = true; f.drainTimeout = 0 },
			wantErr: "must be positive"},
		{name: "unknown arrival process", set: []string{"load"},
			mutate:  func(f *serveFlags) { f.load = true; f.arrival = "uniform" },
			wantErr: "poisson, bursty or diurnal"},
		{name: "nonpositive rate", set: []string{"load", "rates"},
			mutate:  func(f *serveFlags) { f.load = true; f.rates = "100,-5" },
			wantErr: "must be positive"},
		{name: "junk rate", set: []string{"load", "rates"},
			mutate:  func(f *serveFlags) { f.load = true; f.rates = "fast" },
			wantErr: "bad rate"},
		{name: "nonpositive arrivals", set: []string{"load", "arrivals"},
			mutate:  func(f *serveFlags) { f.load = true; f.arrivals = 0 },
			wantErr: "-arrivals must be positive"},
		{name: "nonpositive queue-cap", set: []string{"load", "queue-cap"},
			mutate:  func(f *serveFlags) { f.load = true; f.queueCap = -1 },
			wantErr: "-queue-cap must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, s := range tc.set {
				set[s] = true
			}
			f := base
			tc.mutate(&f)
			err := validateServeFlags(set, f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestGridbenchFlagValidationCLI pins the end-to-end behavior: a
// contradictory invocation exits nonzero with the validation message
// before any benchmark work starts.
func TestGridbenchFlagValidationCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildBench(t)
	out, err := exec.Command(bin, "-drain-timeout", "5s").CombinedOutput()
	if err == nil {
		t.Fatalf("contradictory flags accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "-drain-timeout requires") {
		t.Fatalf("unhelpful validation error:\n%s", out)
	}
	out, err = exec.Command(bin, "-load", "-rates", "0").CombinedOutput()
	if err == nil {
		t.Fatalf("nonpositive rate accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "must be positive") {
		t.Fatalf("unhelpful rate error:\n%s", out)
	}
}

// TestGridbenchLoad smoke-runs the three serving modes' CLI on a small
// platform: each exits zero — no job or block lost — and renders its
// table and final SLO flush.
func TestGridbenchLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildBench(t)
	dir := t.TempDir()
	platform := filepath.Join(dir, "p.json")
	os.WriteFile(platform, []byte(`{
  "clusters": [
    {"name": "x", "nodes": 2, "procsPerNode": 2, "gflops": 3, "latencyMs": 0.05, "mbps": 900},
    {"name": "y", "nodes": 2, "procsPerNode": 2, "gflops": 3, "latencyMs": 0.05, "mbps": 900}
  ],
  "links": [{"from": "x", "to": "y", "latencyMs": 7, "mbps": 90}]
}`), 0o644)
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-serve", "-quick"},
			[]string{"Serving layer: closed-loop", "msgs/job", "final SLO (last load point)"}},
		{[]string{"-load", "-arrival", "diurnal", "-rates", "400", "-arrivals", "24"},
			[]string{"Open-loop serving", "diurnal", "final SLO (last load point)"}},
		{[]string{"-stream", "-quick"},
			[]string{"Open-loop streaming ingest", "msgs/snap", "final SLO (last rate point)"}},
	} {
		out, err := exec.Command(bin, append([]string{"-platform", platform}, tc.args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out)
		}
		for _, want := range tc.want {
			if !strings.Contains(string(out), want) {
				t.Fatalf("%v output missing %q:\n%s", tc.args, want, out)
			}
		}
	}
}

func TestGridbenchUnknownFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildBench(t)
	if out, err := exec.Command(bin, "-fig", "nope").CombinedOutput(); err == nil {
		t.Fatalf("expected failure:\n%s", out)
	}
}
