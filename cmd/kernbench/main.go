// Command kernbench measures the wall-clock kernel benchmark set
// (internal/bench.RunKernBench) and optionally gates it against a
// committed baseline. Unlike gridbench, whose simulated numbers are
// machine-independent and diffed exactly, kernbench times real kernels
// on the host, so GOMAXPROCS is pinned for repeatability and the gate
// only fails on large regressions. It prints, and writes into its report,
// the kernel set CPUID selected (blas.KernelSet: go, avx2 or avx512):
//
//	kernbench -procs 1 -json results/KERNBENCH.json      # refresh baseline
//	kernbench -procs 1 -baseline results/KERNBENCH.json  # CI gate (-tol 0.30)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"gridqr/internal/bench"
	"gridqr/internal/blas"
)

func main() {
	procs := flag.Int("procs", 1, "GOMAXPROCS (and BLAS worker count) to pin while measuring")
	jsonOut := flag.String("json", "", "write measurements to this file as a new baseline")
	baseline := flag.String("baseline", "", "compare measurements against this committed baseline")
	tol := flag.Float64("tol", 0.30, "relative slowdown tolerated before the gate fails")
	flag.Parse()

	runtime.GOMAXPROCS(*procs)
	blas.SetWorkers(*procs)

	results := bench.RunKernBench()
	fmt.Printf("kernel set: %s\n", blas.KernelSet())
	fmt.Printf("%-24s %14s %10s\n", "kernel", "ns/op", "Gflop/s")
	for _, r := range results {
		fmt.Printf("%-24s %14.0f %10.2f\n", r.Name, r.NsPerOp, r.Gflops)
	}

	if *jsonOut != "" {
		rep := bench.KernReport{Procs: *procs, Kernels: blas.KernelSet(), Results: results}
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("baseline written to %s (procs=%d)\n", *jsonOut, *procs)
	}

	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fatal(err)
		}
		want, err := bench.ReadKernReport(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if want.Procs != *procs {
			fmt.Fprintf(os.Stderr, "warning: baseline taken at procs=%d, measuring at procs=%d\n",
				want.Procs, *procs)
		}
		if want.Kernels != blas.KernelSet() {
			fmt.Printf("baseline taken on the %s kernels, measuring the %s kernels\n",
				want.Kernels, blas.KernelSet())
		}
		diffs := bench.CompareKern(results, want, *tol)
		if len(diffs) > 0 {
			fmt.Fprintln(os.Stderr, "kernel benchmark gate FAILED:")
			for _, d := range diffs {
				fmt.Fprintln(os.Stderr, "  "+d)
			}
			fmt.Fprintf(os.Stderr, "if the slowdown is intentional, refresh with `make baseline-kern`\n")
			os.Exit(1)
		}
		fmt.Printf("kernel gate passed against %s (tol %.0f%%)\n", *baseline, *tol*100)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kernbench:", err)
	os.Exit(1)
}
