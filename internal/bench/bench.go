// Package bench is the experiment harness: it re-runs every figure and
// table of the paper's evaluation (Section V) on the simulated Grid'5000
// platform and returns the same series the paper plots, alongside the
// Section IV model predictions.
//
// All experiment runs execute the real distributed algorithms in
// cost-only virtual-time mode: one goroutine per process, every message
// priced by the link it traverses, every kernel charged its flop count —
// so "who wins, by what factor, where the crossovers fall" is measured
// from the actual communication structure, not assumed.
package bench

import (
	"fmt"
	"strings"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/mpi"
	"gridqr/internal/perfmodel"
	"gridqr/internal/scalapack"
	"gridqr/internal/telemetry"
)

// Algorithm selects the factorization under test.
type Algorithm int

const (
	ScaLAPACK Algorithm = iota // PDGEQRF with the paper's NB/NX defaults
	TSQR                       // QCG-TSQR with the grid-tuned tree
)

func (a Algorithm) String() string {
	if a == ScaLAPACK {
		return "ScaLAPACK"
	}
	return "TSQR"
}

// Run describes one experiment point.
type Run struct {
	Grid  *grid.Grid // the full platform; Sites selects a prefix
	Sites int
	M, N  int
	Algo  Algorithm
	// DomainsPerCluster applies to TSQR: 0 = one domain per process.
	DomainsPerCluster int
	Tree              core.Tree
	WantQ             bool
	// NB and NX override ScaLAPACK's block size and crossover
	// (0 = the paper's defaults). The standard N=64 runs sit below the
	// default crossover and never block; overlap studies lower both so
	// PDGEQRF actually performs block updates.
	NB, NX int
	// Overlap selects the compute/communication-overlap variants:
	// TSQR with the flat cross-site stage on the grid tree, or lookahead
	// PDGEQRF. Traffic totals are identical to the blocking variants.
	Overlap bool
	// Traced records a structured telemetry trace and metrics registry
	// during the run, enabling the critical-path and communication-matrix
	// fields of the Measurement (small per-event overhead).
	Traced bool
}

// Measurement is the outcome of a Run.
type Measurement struct {
	Seconds float64 // simulated completion time
	Gflops  float64 // paper's performance metric
	// Traffic split by link class, plus total charged flops.
	Counters mpi.CounterSnapshot
	// Breakdown splits the critical rank's time into computation and
	// per-link-class message waiting (Section V-E).
	Breakdown mpi.TimeBreakdown
	// Model predictions from perfmodel for the same point.
	ModelSeconds float64
	ModelGflops  float64
	// Telemetry products, populated only for Traced runs.
	Trace        *telemetry.Trace
	CriticalPath *telemetry.CriticalPath
	CommMatrix   *telemetry.CommMatrix
	Registry     *telemetry.Registry
}

// Execute runs one experiment point in cost-only simulation.
func Execute(r Run) Measurement {
	g := r.Grid.Sites(r.Sites)
	opts := []mpi.Option{mpi.CostOnly()}
	var reg *telemetry.Registry
	if r.Traced {
		reg = telemetry.NewRegistry()
		opts = append(opts, mpi.Traced(), mpi.WithMetrics(reg))
	}
	w := mpi.NewWorld(g, opts...)
	procs := g.Procs()
	offsets := scalapack.BlockOffsets(r.M, procs)
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		switch r.Algo {
		case ScaLAPACK:
			in := scalapack.Input{M: r.M, N: r.N, Offsets: offsets}
			var f *scalapack.Factorization
			if r.Overlap {
				f = scalapack.PDGEQRFLookahead(comm, in, r.NB, r.NX)
			} else {
				f = scalapack.PDGEQRF(comm, in, r.NB, r.NX)
			}
			if r.WantQ {
				scalapack.PDORG2R(comm, f)
			}
		case TSQR:
			in := core.Input{M: r.M, N: r.N, Offsets: offsets}
			core.Factorize(comm, in, core.Config{
				DomainsPerCluster: r.DomainsPerCluster,
				Tree:              r.Tree,
				WantQ:             r.WantQ,
				Overlap:           r.Overlap,
			})
		}
	})
	sec := w.MaxClock()
	m := Measurement{
		Seconds:   sec,
		Gflops:    perfmodel.Gflops(r.M, r.N, r.WantQ, sec),
		Counters:  w.Counters(),
		Breakdown: w.BreakdownOf(0),
	}
	if r.Traced {
		m.Trace = w.Trace()
		cp := telemetry.AnalyzeCriticalPath(m.Trace)
		m.CriticalPath = &cp
		cm := telemetry.BuildCommMatrix(m.Trace)
		m.CommMatrix = &cm
		m.Registry = reg
	}
	pred := perfmodel.Predictor{G: r.Grid, Sites: r.Sites, DomainsPerCluster: r.DomainsPerCluster}
	switch {
	case r.Algo == ScaLAPACK:
		m.ModelSeconds = pred.ScaLAPACKTime(r.M, r.N, r.WantQ)
	case r.Tree == core.TreeMultiLevel:
		m.ModelSeconds = pred.TSQRTimeMultiLevel(r.M, r.N, r.WantQ)
	default:
		m.ModelSeconds = pred.TSQRTime(r.M, r.N, r.WantQ)
	}
	m.ModelGflops = perfmodel.Gflops(r.M, r.N, r.WantQ, m.ModelSeconds)
	return m
}

// Point is one x/y sample of a series, with the model's prediction.
type Point struct {
	X      float64 // M, or domain count, depending on the figure
	Gflops float64
	Model  float64
}

// Series is one curve of a panel.
type Series struct {
	Label  string
	Points []Point
}

// Panel is one subplot (one value of N, in the paper's figures).
type Panel struct {
	Title  string
	XLabel string
	Series []Series
}

// Figure is a full multi-panel figure.
type Figure struct {
	Name   string
	Title  string
	Panels []Panel
}

// String renders the figure as aligned text tables, one per panel — the
// textual equivalent of the paper's plots.
func (f Figure) String() string {
	out := fmt.Sprintf("== %s: %s ==\n", f.Name, f.Title)
	for _, p := range f.Panels {
		out += fmt.Sprintf("\n-- %s --\n", p.Title)
		out += fmt.Sprintf("%14s", p.XLabel)
		for _, s := range p.Series {
			out += fmt.Sprintf("  %22s", s.Label)
		}
		out += "\n"
		for i := range p.Series[0].Points {
			out += fmt.Sprintf("%14.0f", p.Series[0].Points[i].X)
			for _, s := range p.Series {
				pt := s.Points[i]
				out += fmt.Sprintf("  %10.1f (mdl %6.1f)", pt.Gflops, pt.Model)
			}
			out += "\n"
		}
	}
	return out
}

// CSV renders the figure as comma-separated records
// (panel,series,x,gflops,model) for external plotting tools.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString("panel,series,x,gflops,model_gflops\n")
	for _, p := range f.Panels {
		for _, s := range p.Series {
			for _, pt := range s.Points {
				fmt.Fprintf(&b, "%q,%q,%g,%g,%g\n", p.Title, s.Label, pt.X, pt.Gflops, pt.Model)
			}
		}
	}
	return b.String()
}
