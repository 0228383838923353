// Command benchmarks is the repository's wall-clock benchmark of the
// data path: seven named workloads, each reporting the end-to-end
// metrics a caller sees and, on a traced run, the metrics of the single
// layers underneath. It drives the public functions of the internal
// packages from outside; README.md has the workload × layer table.
//
//	go run ./benchmarks -workload all -seed 1            # every workload, one JSON document
//	go run ./benchmarks -workload all -seed 1 -trace 1   # plus a traced run and a trace file each
//	go run ./benchmarks -workload factor_tall -seed 7    # one workload in this process
//	go run ./benchmarks -compare old.json new.json
//
// A single-workload run prints every metric by name and unit and ends
// with one JSON line {"correct","attempted","failed","metrics"}; it exits
// non-zero when any result failed verification.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"gridqr/internal/matrix"
)

// defaultSeconds is the timed window of one run (BENCHMARK.json's
// run_seconds).
const defaultSeconds = 10

// document is the one JSON file a -workload all invocation writes, and
// what -compare reads.
type document struct {
	Schema  int         `json:"schema"`
	Host    fingerprint `json:"host"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name, or \"all\" to run every workload in a child process each")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the timed window of one run")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace; with -workload all, in addition to the untraced run")
		runs     = flag.Int("runs", 1, "with -workload all: runs per workload, on seeds seed, seed+1, ...")
		out      = flag.String("out", filepath.Join("benchmarks", "out"), "directory for the JSON document and the trace files")
		smoke    = flag.Bool("smoke", false, "tiny shapes: checks the harness, measures nothing")
		detail   = flag.String("detail", "", "also write this run's full record to the given file (used by -workload all)")
		compare  = flag.Bool("compare", false, "compare two documents: -compare old.json new.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare old.json new.json")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
	case *workload == "all":
		if err := runAll(*seed, *seconds, *trace == 1, *runs, *out, *smoke); err != nil {
			fatalf("%v", err)
		}
	default:
		if _, ok := findWorkload(*workload); !ok {
			fatalf("unknown workload %q; have %s, all", *workload, strings.Join(workloadNames(), ", "))
		}
		rec := runWorkload(runConfig{
			Workload: *workload, Seed: *seed, Seconds: *seconds,
			Trace: *trace == 1, Smoke: *smoke, TraceDir: *out,
		})
		printRecord(os.Stdout, hostFingerprint(*seed), rec)
		if *detail != "" {
			if err := writeJSON(*detail, rec); err != nil {
				fatalf("%v", err)
			}
		}
		fmt.Println(resultLine(rec))
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmarks: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// resultLine is the last line of a single-workload run: exactly the
// keys correct, attempted, failed and metrics — every end-to-end metric
// on an untraced run, every per-layer metric on a traced one. A
// per-layer metric whose layer is off the workload's path reads 0.
func resultLine(rec *runRecord) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{rec.Metrics[d.Name].Value, d.Unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(buf)
}

// printRecord lists every metric of a run by name and unit; timings come
// with their sample count, quartiles and stable tail.
func printRecord(w io.Writer, fp fingerprint, rec *runRecord) {
	mode := "untraced"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g %s  (%s, nproc=%d GOMAXPROCS=%d blas.Workers=%d, %s, GOGC=%s, commit %s)\n",
		rec.Workload, rec.Seed, rec.Seconds, mode, fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.BlasWorkers,
		fp.GoVersion, fp.GOGC, fp.GitCommit)
	for _, name := range rec.metricNames() {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "%-34s %14.6g %-9s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d q1=%.6g q3=%.6g p%g=%.6g", m.N, m.Q1, m.Q3, m.HiPct, m.Hi)
		}
		fmt.Fprintln(w)
	}
	if len(rec.SelfTime) > 0 {
		fmt.Fprintf(w, "%-34s %8s %12s %12s %12s\n", "# span", "count", "total_ms", "self_ms", "self_ms_p50")
		for _, r := range rec.SelfTime {
			fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f %12.4f\n", r.Name, r.Count, r.TotalMs, r.SelfMs, r.SelfP50)
		}
	}
	if rec.TraceFile != "" {
		fmt.Fprintf(w, "# trace written to %s\n", rec.TraceFile)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "# note %s\n", n)
	}
	for _, f := range rec.Flags {
		fmt.Fprintf(w, "# FLAG %s\n", f)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "# FAILED %s\n", p)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v wall=%.1fs\n", rec.Attempted, rec.Failed, rec.Correct, rec.WallS)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runAll runs every workload, each run in a child process of its own
// with the default GOMAXPROCS and blas.Workers(), and writes one JSON
// document. The two roofs in the fingerprint are measured here, in the
// same invocation as the numbers they sit beside.
func runAll(seed int64, seconds float64, traced bool, runs int, outDir string, smoke bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := document{Schema: 1, Host: hostFingerprint(seed), Seconds: seconds}
	pr := prober{smoke: smoke}
	shape := shapeTall
	if smoke {
		shape = shape.smoke()
	}
	rows := 2 * shape.rowsPerRank
	src := matrix.Random(rows, shape.n, seed)
	doc.Host.CopyGBps, doc.Host.CopyBytes = pr.copyRoof(src, matrix.New(rows, shape.n)), panelBytes(src)
	doc.Host.DgemmGflops = pr.dgemm()
	fmt.Printf("# roofs: matrix.copy_gbps %.4g GB/s on %.4g-byte arrays (LLC %d bytes), blas.dgemm_gflops %.4g Gflop/s\n",
		doc.Host.CopyGBps, doc.Host.CopyBytes, doc.Host.LLCBytes, doc.Host.DgemmGflops)

	failed := false
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			for _, tr := range []bool{false, true} {
				if tr && !traced {
					continue
				}
				rec, err := runChild(self, w.Name, seed+int64(i), seconds, tr, outDir, smoke)
				if err != nil {
					return err
				}
				failed = failed || !rec.Correct
				doc.Runs = append(doc.Runs, *rec)
			}
		}
	}
	path := filepath.Join(outDir, "bench.json")
	if err := writeJSON(path, doc); err != nil {
		return err
	}
	fmt.Printf("# document written to %s\n", path)
	if failed {
		return fmt.Errorf("at least one run failed verification")
	}
	return nil
}

// runChild runs one workload in a child process and reads its record
// back. The child is waited for before runChild returns.
func runChild(self, workload string, seed int64, seconds float64, traced bool, outDir string, smoke bool) (*runRecord, error) {
	detail := filepath.Join(outDir, fmt.Sprintf("%s.seed%d.trace%d.json", workload, seed, b2i(traced)))
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(b2i(traced)), "-out", outDir, "-detail", detail,
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	buf, err := os.ReadFile(detail)
	if err != nil {
		return nil, fmt.Errorf("%s: no record (%v; child: %v)", workload, err, runErr)
	}
	rec := &runRecord{}
	if err := json.Unmarshal(buf, rec); err != nil {
		return nil, fmt.Errorf("%s: %v", workload, err)
	}
	if err := os.Remove(detail); err != nil {
		return nil, err
	}
	return rec, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
