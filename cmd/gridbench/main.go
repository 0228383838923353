// Command gridbench regenerates every table and figure of the paper's
// evaluation on the simulated Grid'5000 platform.
//
// Usage:
//
//	gridbench [-fig all|3|4|5|6|7|8|table1|table2|messages|faults|...] [-quick]
//
// The output is one text table per figure panel: the simulator's Gflop/s
// next to the Section IV model prediction for every point the paper
// plots. -quick trims the sweeps (fewer M values) for a fast smoke run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gridqr/internal/bench"
	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/monitor"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
	"gridqr/internal/sched"
	"gridqr/internal/telemetry"
)

func main() {
	fig := flag.String("fig", "all", "which figure/table to regenerate: 3,4,5,6,7,8,table1,table2,messages,breakdown,ablation,overlap,trace,weak,straggler,faults,model,all")
	quick := flag.Bool("quick", false, "trim sweeps for a fast smoke run")
	platform := flag.String("platform", "", "JSON platform file (default: the paper's Grid'5000)")
	csvDir := flag.String("csv", "", "also write figure data as CSV files into this directory")
	traceOut := flag.String("trace", "", "run a traced 2-site TSQR benchmark and write a Chrome/Perfetto trace_event JSON file (load in ui.perfetto.dev)")
	metrics := flag.Bool("metrics", false, "run the traced benchmark and print its metrics registry, critical path and per-site communication matrix")
	jsonOut := flag.String("json", "", "run the standard benchmark set and write a machine-readable JSON report")
	baseline := flag.String("baseline", "", "re-run the standard benchmark set and fail if it drifts from this committed JSON report (the CI perf gate)")
	serve := flag.Bool("serve", false, "run the closed-loop serving benchmark: concurrent TSQR jobs space-shared over site partitions, throughput and latency vs offered load")
	load := flag.Bool("load", false, "run the open-loop serving benchmark: a trace-driven arrival process with the SLO-driven autoscaler in the loop, latency and shedding vs offered load")
	streamMode := flag.Bool("stream", false, "run the open-loop streaming-ingest benchmark: row-blocks folded incrementally into one long-lived stream, snapshot-barrier latency vs ingest rate")
	blocks := flag.Int("blocks", bench.StreamBlocksPerPoint, "with -stream: blocks ingested per rate point")
	snapEvery := flag.Int("snapshot-every", bench.StreamSnapshotEvery, "with -stream: fire a snapshot barrier after every this many blocks")
	arrival := flag.String("arrival", "poisson", "with -load: arrival process (poisson, bursty, diurnal)")
	ratesFlag := flag.String("rates", "", "with -load/-stream: comma-separated offered rates in jobs/s resp. blocks/s (default the standard ladder)")
	arrivals := flag.Int("arrivals", bench.LoadArrivals, "with -load: arrivals per load point")
	queueCap := flag.Int("queue-cap", 0, "with -load: admission queue bound; arrivals past it are shed typed (0 = default)")
	noAutoscale := flag.Bool("no-autoscale", false, "with -load: pin the plan to the ladder's lowest level instead of autoscaling")
	listen := flag.String("listen", "", "with -serve: expose the monitoring endpoint (/metrics, /healthz, /jobs, /trace, /debug/pprof) on this address, e.g. 127.0.0.1:9090")
	verbose := flag.Bool("v", false, "with -serve: structured per-job lifecycle logs (log/slog) on stderr")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "with -serve: how long SIGINT/SIGTERM shutdown waits for in-flight jobs before exiting nonzero")
	overlap := flag.Bool("overlap", false, "use the compute/communication-overlap variants in the traced benchmark (-trace/-metrics)")
	scale := flag.Bool("scale", false, "run the 1k-32k-rank event-engine scale sweep on the synthetic hierarchical platform and print the tree-shape comparison")
	ranks := flag.Int("ranks", 0, "with -scale/-json: cap the sweep at this rank count (0 = the full 1024,4096,16384,32768 sweep)")
	treeFlag := flag.String("tree", "", "with -scale: restrict the sweep to one reduction tree (grid, binary, flat, binary-shuffled, multi-level; empty = all)")
	scaleMaxRanks := flag.Int("scale-max-ranks", 4096, "with -baseline: gate committed scale runs only up to this rank count (0 = gate the full sweep, the nightly setting)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	cli := serveFlags{
		serve: *serve, load: *load, stream: *streamMode,
		listen: *listen, drainTimeout: *drainTimeout,
		verbose: *verbose, arrival: *arrival, rates: *ratesFlag,
		arrivals: *arrivals, queueCap: *queueCap, noAutoscale: *noAutoscale,
		blocks: *blocks, snapEvery: *snapEvery,
	}
	if err := validateServeFlags(set, cli); err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		os.Exit(2)
	}

	g := grid.Grid5000()
	if *platform != "" {
		f, err := os.Open(*platform)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
			os.Exit(2)
		}
		g, err = grid.FromJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
			os.Exit(2)
		}
	}
	if *quick {
		bench.PanelNs = []int{64, 512}
		bench.BestDomainCandidates = []int{1, 64}
		bench.DomainSweep = []int{1, 4, 16, 64}
	}

	if *platform != "" {
		adaptSweepsTo(g)
	}

	want := func(k string) bool { return *fig == "all" || *fig == k }
	ran := false

	// A mode flag alone skips the figure sweeps.
	if *traceOut != "" || *metrics || *serve || *load || *streamMode || *scale ||
		*baseline != "" || *jsonOut != "" {
		ran = true
		if *fig == "all" {
			*fig = ""
		}
	}
	if *traceOut != "" || *metrics {
		telemetryRun(g, *traceOut, *metrics, *overlap)
	}
	if *serve {
		loads := bench.StandardServeLoads
		if *quick {
			loads = loads[:min(2, len(loads))]
		}
		if !runServe(g, loads, cli) {
			os.Exit(1)
		}
	}
	if *load {
		rates, err := parseRates(*ratesFlag, bench.StandardLoadRates)
		if err != nil { // unreachable: validateServeFlags already parsed it
			fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
			os.Exit(2)
		}
		n := *arrivals
		if *quick {
			n = min(n, 40)
		}
		if !runLoad(g, rates, n, cli) {
			os.Exit(1)
		}
	}
	if *streamMode {
		rates, err := parseRates(*ratesFlag, bench.StandardStreamRates)
		if err != nil { // unreachable: validateServeFlags already parsed it
			fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
			os.Exit(2)
		}
		b := *blocks
		if *quick {
			b = min(b, 2**snapEvery)
		}
		if !runStream(g, rates, b, cli) {
			os.Exit(1)
		}
	}
	if *scale {
		trees := []core.Tree(nil)
		if *treeFlag != "" {
			t, err := core.ParseTree(*treeFlag)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
				os.Exit(2)
			}
			trees = []core.Tree{t}
		}
		fmt.Println(bench.FormatScale(bench.ScaleStudy(*ranks, trees)))
	}
	if *baseline != "" {
		if !perfGate(g, *baseline, platformName(*platform), *scaleMaxRanks) {
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		rep := bench.StandardReport(g, platformName(*platform), *ranks, nil)
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d runs)\n", *jsonOut, len(rep.Runs))
	}

	if want("3") {
		ran = true
		fmt.Println("== Figure 3(a): Grid'5000 communication characteristics (simulated platform) ==")
		fmt.Println(bench.Fig3aTable(g))
	}
	if want("table1") {
		ran = true
		fmt.Print(bench.FormatTable("Table I: R-factor only (M=2^22, N=64, P=256 domains)",
			bench.TableI(g, 1<<22, 64)))
		fmt.Println()
	}
	if want("table2") {
		ran = true
		fmt.Print(bench.FormatTable("Table II: Q and R factors (M=2^22, N=64, P=256 domains)",
			bench.TableII(g, 1<<22, 64)))
		fmt.Println()
	}
	if want("trace") {
		ran = true
		printTraces()
	}
	if want("weak") {
		ran = true
		fmt.Println(bench.FormatWeakScaling(g, 1<<17, 64))
	}
	if want("model") {
		ran = true
		fmt.Println(bench.FormatModelCheck(bench.CheckModel(g)))
		fmt.Println("== Multi-site crossover (bisection over the simulator, N = 64) ==")
		if m, ok := bench.CrossoverM(g, bench.ScaLAPACK, 64, 1<<17, 1<<26); ok {
			fmt.Printf("ScaLAPACK: all sites beat one site from M ≈ %d (paper: ≈ 5·10⁶–10⁷)\n", m)
		}
		if m, ok := bench.CrossoverM(g, bench.TSQR, 64, 1<<14, 1<<22); ok {
			fmt.Printf("TSQR:      all sites beat one site from M ≈ %d (paper: ≈ 5·10⁵)\n\n", m)
		}
	}
	if want("faults") {
		ran = true
		m, n := 4096, 32
		fmt.Println(bench.FormatResilience(g, m, n, bench.ResilienceStudy(g, m, n, 13)))
	}
	if want("straggler") {
		ran = true
		m, n := 1<<22, 64
		fmt.Println(bench.FormatStragglers(m, n,
			bench.StragglerStudy(g, m, n, []float64{1.5, 2, 4, 8})))
	}
	if want("ablation") {
		ran = true
		m, n, d := 1<<21, 64, 16
		fmt.Println(bench.FormatAblation(m, n, d, bench.TreeAblation(g, m, n, d)))
	}
	if want("overlap") {
		ran = true
		mt, nt, mq, nq, nb := 1<<20, 64, 1<<18, 256, 32
		fmt.Println(bench.FormatOverlap(mt, nt, mq, nq, nb,
			bench.OverlapStudy(g, mt, nt, mq, nq, nb)))
	}
	if want("breakdown") {
		ran = true
		ms := []int{1 << 17, 1 << 20, 1 << 23, 1 << 25}
		fmt.Println(bench.FormatBreakdown(64, bench.TimeBreakdownSweep(g, 64, ms)))
	}
	if want("messages") {
		ran = true
		c := bench.CompareMessages(3, 2, 600, 3)
		fmt.Println("== Fig. 1 vs Fig. 2: inter-cluster messages, M×3 matrix on 3 clusters ==")
		fmt.Printf("ScaLAPACK PDGEQR2 (binary tree):   %4d inter-cluster msgs (%d total)\n",
			c.ScaLAPACKInter, c.ScaLAPACKTotal)
		fmt.Printf("TSQR, shuffled binomial tree:      %4d inter-cluster msgs\n", c.TSQRShuffledInter)
		fmt.Printf("TSQR, grid-tuned tree (this work): %4d inter-cluster msgs (%d total)\n",
			c.TSQRGridInter, c.TSQRGrid)
		fmt.Printf("provable minimum (C-1):            %4d\n\n", c.OptimalInter)
	}

	var fig4, fig5 *bench.Figure
	if want("4") || want("8") {
		f := bench.Figure4(g)
		fig4 = &f
	}
	if want("5") || want("8") {
		f := bench.Figure5(g)
		fig5 = &f
	}
	emit := func(name string, f bench.Figure) {
		fmt.Println(f)
		if *csvDir != "" {
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	if want("4") {
		ran = true
		emit("figure4", *fig4)
	}
	if want("5") {
		ran = true
		emit("figure5", *fig5)
	}
	if want("6") {
		ran = true
		emit("figure6", bench.Figure6(g))
	}
	if want("7") {
		ran = true
		emit("figure7", bench.Figure7(g))
	}
	if want("8") {
		ran = true
		emit("figure8", bench.Figure8(g, fig4, fig5))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "gridbench: unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
}

// session is the scaffolding the serving modes share: a context that
// SIGINT/SIGTERM cancels, the studies' common options (a debug logger
// under -v, the drain timeout, an OnPoint hook that re-points the
// -listen monitor at each fresh server), and the last point's server and
// registry for the final flush.
type session struct {
	ctx  context.Context
	opts bench.StudyOptions
	mu   sync.Mutex
	srv  *sched.Server
	reg  *telemetry.Registry
}

func (s *session) last() (*sched.Server, *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.srv, s.reg
}

// runSession drives one serving mode: mode runs its study under the
// session, prints its table and final flush, and returns how many points
// finished, how much accepted work was lost and the study's error. It
// returns false — a nonzero exit — when the monitor cannot start, work
// was lost (reported with lostf), or the study failed or timed out
// draining; a signal the study drained cleanly is reported with
// drainedf and exits zero.
func runSession(f serveFlags, drainedf, lostf string,
	mode func(s *session) (points int, lost int64, err error)) bool {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := &session{ctx: ctx, opts: bench.StudyOptions{DrainTimeout: f.drainTimeout}}
	if f.verbose {
		s.opts.Logger = slog.New(slog.NewTextHandler(os.Stderr,
			&slog.HandlerOptions{Level: slog.LevelDebug}))
	}

	// The monitoring endpoint follows the live point: each fresh server
	// re-points /metrics, /jobs and /trace through the Swappable while the
	// listener — and so the scrape address — stays up.
	swap := monitor.NewSwappable()
	s.opts.OnPoint = func(srv *sched.Server, reg *telemetry.Registry) {
		s.mu.Lock()
		s.srv, s.reg = srv, reg
		s.mu.Unlock()
		swap.Set(monitor.Config{
			Registry: reg,
			Jobs:     func() any { return srv.Jobs() },
			Trace:    srv.World().TraceTail,
		})
	}
	if f.listen != "" {
		mon, err := monitor.StartHandler(f.listen, swap)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
			return false
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = mon.Shutdown(sctx)
			cancel()
		}()
		fmt.Printf("monitoring on http://%s/metrics (also /healthz /jobs /trace /debug/pprof)\n\n",
			mon.Addr())
	}

	points, lost, err := mode(s)
	switch {
	case lost > 0:
		fmt.Fprintf(os.Stderr, "gridbench: "+lostf+"\n", lost)
		return false
	case err == nil:
		return true
	case errors.Is(err, context.Canceled):
		fmt.Printf("shutdown: drained "+drainedf+"\n", points)
		return true
	default:
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		return false
	}
}

// runServe drives the closed-loop serving sweep: a signal stops new
// submissions and drains the in-flight jobs; the final flush is the last
// load point's SLO snapshot and, under -v, the full metrics registry.
func runServe(g *grid.Grid, loads []int, f serveFlags) bool {
	return runSession(f, "in-flight jobs cleanly after signal (%d load point(s) finished)", "",
		func(s *session) (int, int64, error) {
			rows, err := bench.ServeStudy(s.ctx, g, loads, bench.ServeJobsPerClient, bench.ServeOptions{
				StudyOptions: s.opts,
				TraceRing:    &telemetry.RingConfig{Capacity: 256, Head: 32},
			})
			if len(rows) > 0 {
				fmt.Println(bench.FormatServe(g, rows))
			}
			srv, reg := s.last()
			if srv != nil {
				slo := srv.SLO()
				fmt.Printf("final SLO (last load point): submitted=%d completed=%d failed=%d rejected=%d retries=%d\n",
					slo.Submitted, slo.Completed, slo.Failed, slo.Rejected, slo.Retries)
				fmt.Printf("latency p50=%.4gs p99=%.4gs p999=%.4gs; queue wait p50=%.4gs p99=%.4gs\n\n",
					slo.Latency.P50, slo.Latency.P99, slo.Latency.P999,
					slo.QueueWait.P50, slo.QueueWait.P99)
			}
			if f.verbose && reg != nil {
				fmt.Println("== Final metrics registry ==")
				fmt.Print(reg.Dump())
				fmt.Println()
			}
			if err == nil && s.ctx.Err() == nil {
				fmt.Println(bench.FormatTraceOverhead(bench.TraceOverheadStudy(g)))
			}
			return len(rows), 0, err
		})
}

// runLoad drives the open-loop sweep; any admitted job lost exits
// nonzero.
func runLoad(g *grid.Grid, rates []float64, arrivals int, f serveFlags) bool {
	return runSession(f, "admitted jobs cleanly after signal (%d load point(s) finished)",
		"%d admitted job(s) lost",
		func(s *session) (int, int64, error) {
			rows, err := bench.LoadStudy(s.ctx, g, f.arrival, rates, arrivals, bench.LoadOptions{
				StudyOptions: s.opts,
				QueueCap:     f.queueCap,
				NoAutoscale:  f.noAutoscale,
			})
			if len(rows) > 0 {
				fmt.Println(bench.FormatLoad(g, rows))
			}
			if srv, _ := s.last(); srv != nil {
				slo := srv.SLO()
				fmt.Printf("final SLO (last load point): submitted=%d completed=%d failed=%d rejected=%d preempted=%d steals=%d epoch=%d partitions=%d\n",
					slo.Submitted, slo.Completed, slo.Failed, slo.Rejected,
					slo.Preempted, slo.Steals, slo.Epoch, slo.Partitions)
				fmt.Printf("latency p50=%.4gs p99=%.4gs p999=%.4gs; queue wait p50=%.4gs p99=%.4gs\n\n",
					slo.Latency.P50, slo.Latency.P99, slo.Latency.P999,
					slo.QueueWait.P50, slo.QueueWait.P99)
			}
			var lost int64
			for _, r := range rows {
				lost += r.Lost
			}
			return len(rows), lost, err
		})
}

// runStream drives the open-loop streaming-ingest sweep; any accepted
// block lost exits nonzero.
func runStream(g *grid.Grid, rates []float64, blocks int, f serveFlags) bool {
	return runSession(f, "accepted blocks cleanly after signal (%d rate point(s) finished)",
		"%d accepted block(s) lost",
		func(s *session) (int, int64, error) {
			rows, err := bench.StreamStudy(s.ctx, g, rates, blocks, bench.StreamOptions{
				StudyOptions:  s.opts,
				SnapshotEvery: f.snapEvery,
			})
			if len(rows) > 0 {
				fmt.Println(bench.FormatStream(g, rows))
			}
			if srv, _ := s.last(); srv != nil {
				slo := srv.SLO()
				fmt.Printf("final SLO (last rate point): blocks=%d snapshots=%d retries=%d preempted=%d\n",
					slo.StreamBlocks, slo.StreamSnapshots, slo.Retries, slo.Preempted)
				fmt.Printf("fold p50=%.4gs p99=%.4gs; snapshot p50=%.4gs p99=%.4gs\n\n",
					slo.StreamFold.P50, slo.StreamFold.P99,
					slo.StreamSnapshot.P50, slo.StreamSnapshot.P99)
			}
			var lost int64
			for _, r := range rows {
				lost += int64(r.Lost)
			}
			return len(rows), lost, err
		})
}

// serveFlags carries the serving-mode CLI surface for validation: which
// modes were requested plus every flag scoped to them.
type serveFlags struct {
	serve, load, stream bool
	listen              string
	drainTimeout        time.Duration
	verbose             bool
	arrival             string
	rates               string
	arrivals            int
	queueCap            int
	noAutoscale         bool
	blocks              int
	snapEvery           int
}

// validateServeFlags rejects contradictory serving-flag combinations up
// front instead of silently proceeding (a -drain-timeout on a figures
// run, a -rates list with a nonpositive entry, ...). set records which
// flags the user passed explicitly (flag.Visit), so defaults never
// trigger scope errors.
func validateServeFlags(set map[string]bool, f serveFlags) error {
	serving := f.serve || f.load || f.stream
	scoped := []struct {
		name  string
		scope string
		ok    bool
	}{
		{"listen", "-serve, -load or -stream", serving},
		{"drain-timeout", "-serve, -load or -stream", serving},
		{"v", "-serve, -load or -stream", serving},
		{"arrival", "-load", f.load},
		{"rates", "-load or -stream", f.load || f.stream},
		{"arrivals", "-load", f.load},
		{"queue-cap", "-load", f.load},
		{"no-autoscale", "-load", f.load},
		{"blocks", "-stream", f.stream},
		{"snapshot-every", "-stream", f.stream},
	}
	for _, s := range scoped {
		if set[s.name] && !s.ok {
			return fmt.Errorf("-%s requires %s", s.name, s.scope)
		}
	}
	if set["drain-timeout"] && f.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", f.drainTimeout)
	}
	if f.load {
		switch f.arrival {
		case "poisson", "bursty", "diurnal":
		default:
			return fmt.Errorf("-arrival must be poisson, bursty or diurnal, got %q", f.arrival)
		}
		if _, err := parseRates(f.rates, bench.StandardLoadRates); err != nil {
			return err
		}
		if f.arrivals <= 0 {
			return fmt.Errorf("-arrivals must be positive, got %d", f.arrivals)
		}
		if set["queue-cap"] && f.queueCap <= 0 {
			return fmt.Errorf("-queue-cap must be positive, got %d", f.queueCap)
		}
	}
	if f.stream {
		if _, err := parseRates(f.rates, bench.StandardStreamRates); err != nil {
			return err
		}
		if f.blocks <= 0 {
			return fmt.Errorf("-blocks must be positive, got %d", f.blocks)
		}
		if f.snapEvery <= 0 {
			return fmt.Errorf("-snapshot-every must be positive, got %d", f.snapEvery)
		}
	}
	return nil
}

// parseRates parses the -rates list; empty selects the mode's standard
// ladder.
func parseRates(s string, def []float64) ([]float64, error) {
	if s == "" {
		return def, nil
	}
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("-rates: bad rate %q", part)
		}
		if r <= 0 {
			return nil, fmt.Errorf("-rates: rate must be positive, got %g", r)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

// adaptSweepsTo clamps the paper's sweep parameters to what a custom
// platform can support: site counts within the cluster count, and domain
// counts that divide every cluster's processor count.
func adaptSweepsTo(g *grid.Grid) {
	var sites []int
	for _, s := range bench.SiteConfigs {
		if s <= len(g.Clusters) {
			sites = append(sites, s)
		}
	}
	if len(sites) == 0 {
		sites = []int{1}
	}
	bench.SiteConfigs = sites

	divides := func(d int) bool {
		for _, c := range g.Clusters {
			if c.Procs()%d != 0 {
				return false
			}
		}
		return true
	}
	filter := func(ds []int) []int {
		var out []int
		for _, d := range ds {
			if divides(d) {
				out = append(out, d)
			}
		}
		if len(out) == 0 {
			out = []int{1}
		}
		return out
	}
	bench.DomainSweep = filter(bench.DomainSweep)
	bench.BestDomainCandidates = filter(bench.BestDomainCandidates)
}

// platformName labels the report with its platform source.
func platformName(path string) string {
	if path == "" {
		return "grid5000"
	}
	return path
}

// perfGate re-runs the standard benchmark set and compares it against
// the committed baseline report; it prints every drift line and returns
// false if any metric moved beyond tolerance. Committed scale runs are
// re-run and gated only up to scaleMaxRanks (0 = all of them).
func perfGate(g *grid.Grid, baselinePath, platform string, scaleMaxRanks int) bool {
	f, err := os.Open(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		return false
	}
	want, err := bench.ReadReport(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		return false
	}
	got := bench.StandardReport(g, platform, scaleMaxRanks, &want)
	diffs := bench.CompareReports(got, want, bench.Tolerances{ScaleMaxRanks: scaleMaxRanks})
	if len(diffs) == 0 {
		fmt.Printf("perf gate: %d baseline runs match within tolerance\n", len(want.Runs))
		return true
	}
	fmt.Fprintf(os.Stderr, "perf gate: %d drift(s) from %s:\n", len(diffs), baselinePath)
	for _, d := range diffs {
		fmt.Fprintf(os.Stderr, "  %s\n", d)
	}
	fmt.Fprintln(os.Stderr, "if the change is intentional, regenerate the baseline with: gridbench -json "+baselinePath)
	return false
}

// telemetryRun executes the canonical traced benchmark — a 2-site TSQR
// factorization at the paper's N = 64, or its overlapped variant — and
// renders its telemetry: optionally a Chrome trace_event file for
// Perfetto, and optionally the metrics registry, critical-path
// decomposition and per-site communication matrix on stdout.
func telemetryRun(g *grid.Grid, traceOut string, metrics, overlap bool) {
	sites := min(2, len(g.Clusters))
	r := bench.Run{Grid: g, Sites: sites, M: 1 << 20, N: 64,
		Algo: bench.TSQR, Tree: core.TreeGrid, Overlap: overlap, Traced: true}
	m := bench.Execute(r)
	variant := ""
	if overlap {
		variant = " (overlapped)"
	}
	fmt.Printf("== Traced run: TSQR%s M=2^20 N=64 on %d site(s), %d procs ==\n",
		variant, sites, g.Sites(sites).Procs())
	fmt.Printf("simulated time %.6f s, %.1f Gflop/s (model %.1f)\n\n",
		m.Seconds, m.Gflops, m.ModelGflops)
	fmt.Print(m.CriticalPath.String())
	fmt.Printf("\n%s\n", m.CommMatrix.String())
	if metrics {
		fmt.Println("== Metrics registry ==")
		fmt.Print(m.Registry.Dump())
		fmt.Println()
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
			os.Exit(1)
		}
		err = telemetry.WriteChromeTrace(f, m.Trace)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (open at ui.perfetto.dev)\n\n", traceOut)
	}
}

// printTraces renders Gantt charts of both algorithms on a small
// 4-cluster grid (16 ranks keep the chart readable): the visual form of
// the Section V-E argument — ScaLAPACK's rows are dominated by
// inter-cluster waits ('!'), TSQR's by computation ('#').
func printTraces() {
	tg := grid.SmallTestGrid(4, 4, 1)
	m, n := 1<<20, 64
	offsets := scalapack.BlockOffsets(m, tg.Procs())
	fmt.Println("== Execution traces (M=2^20, N=64, 4 clusters × 4 procs) ==")
	run := func(name string, fn func(ctx *mpi.Ctx)) {
		w := mpi.NewWorld(tg, mpi.CostOnly(), mpi.Traced())
		w.Run(fn)
		fmt.Printf("\n-- %s --\n%s", name, w.Gantt(100))
	}
	run("QCG-TSQR (grid-tuned tree)", func(ctx *mpi.Ctx) {
		core.Factorize(mpi.WorldComm(ctx), core.Input{M: m, N: n, Offsets: offsets},
			core.Config{Tree: core.TreeGrid})
	})
	run("ScaLAPACK PDGEQR2", func(ctx *mpi.Ctx) {
		scalapack.PDGEQR2(mpi.WorldComm(ctx), scalapack.Input{M: m, N: n, Offsets: offsets})
	})
	fmt.Println()
}
