package bench

import (
	"fmt"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/mpi"
	"gridqr/internal/perfmodel"
	"gridqr/internal/scalapack"
)

// The 1k–32k-rank scale study: the paper's Fig. 4–8 questions re-asked at
// rank counts three orders of magnitude beyond the Grid'5000 testbed,
// runnable only because the cost-only worlds execute on the event-driven
// engine (O(active events) scheduling instead of 32k live threads). The
// platform is synthetic (grid.SyntheticHier): 2 continents of 1 and 3 sites,
// nodes scaled so 8 processes per node yields the requested rank count.

// ScaleRankCounts is the standard sweep: 1k, 4k, 16k and 32k ranks.
var ScaleRankCounts = []int{1024, 4096, 16384, 32768}

// ScaleTrees are the reduction-tree shapes compared at scale. The
// shuffled binomial models randomly-placed ranks (every level of the
// hierarchy misaligned); the flat tree and ScaLAPACK join only up to
// ScaleScaLAPACKCap ranks — the flat tree's virtual time is off the
// chart past 4k, and PDGEQR2 sends 2(P−1) messages per column.
var ScaleTrees = []core.Tree{core.TreeGrid, core.TreeBinary, core.TreeMultiLevel,
	core.TreeBinaryShuffled, core.TreeFlat}

// ScaleScaLAPACKCap bounds the rank count of the ScaLAPACK and flat-tree
// scale points.
const ScaleScaLAPACKCap = 4096

// ScaleN is the panel width of every scale point (the paper's N = 64).
const ScaleN = 64

// scaleRowsPerRank keeps the matrix shape constant across rank counts
// (weak scaling): M = ranks × 256, so every rank holds a 256×64 block.
const scaleRowsPerRank = 256

// ScalePlatform builds the synthetic platform for a rank count: two
// continents of unequal weight (1 site + 3 sites) × (ranks/32) nodes per
// site × 8 processes per node. Ranks must be a multiple of 32. The
// asymmetry is deliberate: on a fully uniform power-of-two platform the
// rank-major binomial tree aligns with every hierarchy level and all
// topology-aware trees coincide with it; the uneven continent split is
// what separates the multi-level tree (continents−1 = 1 inter-continental
// message) from the two-level grid tree (whose cross-site binomial pays
// several).
func ScalePlatform(ranks int) *grid.Grid {
	if ranks%32 != 0 {
		panic(fmt.Sprintf("bench: scale rank count %d not a multiple of 32", ranks))
	}
	return grid.SyntheticHier([]int{1, 3}, ranks/32, 8)
}

// ScaleRun is one point of the scale sweep, the Report.Scale record the
// perf gate diffs. Virtual seconds and traffic counts are deterministic
// (the event engine dispatches in a fixed total order); wall seconds and
// engine statistics are informational.
type ScaleRun struct {
	Algo  string `json:"algo"`
	Tree  string `json:"tree,omitempty"`
	Ranks int    `json:"ranks"`
	M     int    `json:"m"`
	N     int    `json:"n"`

	Seconds      float64 `json:"seconds"`
	ModelSeconds float64 `json:"model_seconds"`

	Msgs          int64   `json:"msgs"`
	Bytes         float64 `json:"bytes"`
	InterSiteMsgs int64   `json:"inter_site_msgs"`
	// InterContinentMsgs counts messages whose endpoints sit on different
	// continents, read off the world's site×site traffic matrix. TSQR
	// points only: ScaLAPACK points record -1, which the committed
	// baselines and figures expect.
	// This is the structural win the multi-level tree is after: exactly
	// continents−1, where flatter trees pay more over the slowest links.
	InterContinentMsgs int64 `json:"inter_continent_msgs"`

	// Engine diagnostics, never gated: which engine ran the world, the
	// peak number of undelivered messages (the O(active events) bound the
	// engine exists to enforce), and host wall-clock time.
	Engine          string  `json:"engine"`
	PeakPendingMsgs int64   `json:"peak_pending_msgs"`
	WallSeconds     float64 `json:"wall_seconds"`
}

// ScalePoint executes one scale point in cost-only mode and returns its
// record plus the world's engine statistics (for memory-bound tests).
func ScalePoint(ranks int, algo Algorithm, tree core.Tree) (ScaleRun, mpi.EngineStats) {
	g := ScalePlatform(ranks)
	m := ranks * scaleRowsPerRank
	w := mpi.NewWorld(g, mpi.CostOnly())
	offsets := scalapack.BlockOffsets(m, ranks)
	start := time.Now()
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		switch algo {
		case TSQR:
			core.Factorize(comm, core.Input{M: m, N: ScaleN, Offsets: offsets},
				core.Config{Tree: tree})
		case ScaLAPACK:
			scalapack.PDGEQR2(comm, scalapack.Input{M: m, N: ScaleN, Offsets: offsets})
		}
	})
	wall := time.Since(start).Seconds()
	interCont := int64(-1)
	if algo == TSQR {
		cm := w.CommMatrix()
		interCont = 0
		for i := range cm.Msgs {
			for j := range cm.Msgs[i] {
				if g.ContinentOf(i) != g.ContinentOf(j) {
					interCont += cm.Msgs[i][j]
				}
			}
		}
	}
	total := w.Counters().Total()
	stats := w.EngineStats()
	pred := perfmodel.Predictor{G: g}
	var model float64
	switch {
	case algo == ScaLAPACK:
		model = pred.ScaLAPACKTime(m, ScaleN, false)
	case tree == core.TreeMultiLevel:
		model = pred.TSQRTimeMultiLevel(m, ScaleN, false)
	default:
		model = pred.TSQRTime(m, ScaleN, false)
	}
	sr := ScaleRun{
		Algo:  algo.String(),
		Ranks: ranks,
		M:     m,
		N:     ScaleN,

		Seconds:      w.MaxClock(),
		ModelSeconds: model,

		Msgs:               total.Msgs,
		Bytes:              total.Bytes,
		InterSiteMsgs:      w.Counters().PerClass[grid.InterCluster].Msgs,
		InterContinentMsgs: interCont,

		Engine:          stats.Engine,
		PeakPendingMsgs: int64(stats.PeakPending),
		WallSeconds:     wall,
	}
	if algo == TSQR {
		sr.Tree = tree.String()
	}
	return sr, stats
}

// ScaleStudy runs the sweep over every rank count up to maxRanks
// (0 = the full ScaleRankCounts) for the given trees (nil = ScaleTrees),
// plus the ScaLAPACK reference up to ScaleScaLAPACKCap.
func ScaleStudy(maxRanks int, trees []core.Tree) []ScaleRun {
	if trees == nil {
		trees = ScaleTrees
	}
	var out []ScaleRun
	for _, ranks := range ScaleRankCounts {
		if maxRanks > 0 && ranks > maxRanks {
			continue
		}
		for _, tree := range trees {
			if tree == core.TreeFlat && ranks > ScaleScaLAPACKCap {
				continue
			}
			sr, _ := ScalePoint(ranks, TSQR, tree)
			out = append(out, sr)
		}
		if ranks <= ScaleScaLAPACKCap {
			sr, _ := ScalePoint(ranks, ScaLAPACK, core.TreeGrid)
			out = append(out, sr)
		}
	}
	return out
}

// ScaleCrossovers reports, per rank count, the fastest TSQR tree — the
// headline of the sweep: where the multi-level tree overtakes the paper's
// two-level tuned tree as the hierarchy deepens.
func ScaleCrossovers(runs []ScaleRun) map[int]string {
	best := map[int]string{}
	bestT := map[int]float64{}
	for _, r := range runs {
		if r.Algo != TSQR.String() {
			continue
		}
		if t, ok := bestT[r.Ranks]; !ok || r.Seconds < t {
			bestT[r.Ranks] = r.Seconds
			best[r.Ranks] = r.Tree
		}
	}
	return best
}

// FormatScale renders the sweep as a text table, one row per point,
// with the per-rank-count winner marked.
func FormatScale(runs []ScaleRun) string {
	if len(runs) == 0 {
		return "== Scale sweep: no points ==\n"
	}
	best := ScaleCrossovers(runs)
	g := ScalePlatform(runs[0].Ranks)
	nodes := 0
	for _, c := range g.Clusters {
		nodes += c.Nodes
	}
	out := fmt.Sprintf("== Scale sweep: synthetic %d-continent platform (hierarchy %d/%d/%d/%d at %d ranks), N=%d ==\n",
		g.Continents(), g.Continents(), len(g.Clusters), nodes, g.Procs(), runs[0].Ranks, ScaleN)
	out += fmt.Sprintf("%7s  %-10s  %-15s  %14s  %14s  %10s  %12s  %11s  %9s\n",
		"ranks", "algo", "tree", "virtual s", "model s", "msgs", "inter-site", "inter-cont", "wall s")
	for _, r := range runs {
		mark := ""
		if r.Algo == TSQR.String() && best[r.Ranks] == r.Tree {
			mark = "  << fastest tree"
		}
		cont := fmt.Sprintf("%11d", r.InterContinentMsgs)
		if r.InterContinentMsgs < 0 {
			cont = fmt.Sprintf("%11s", "-")
		}
		out += fmt.Sprintf("%7d  %-10s  %-15s  %14.6f  %14.6f  %10d  %12d  %s  %9.3f%s\n",
			r.Ranks, r.Algo, r.Tree, r.Seconds, r.ModelSeconds, r.Msgs, r.InterSiteMsgs,
			cont, r.WallSeconds, mark)
	}
	return out
}
