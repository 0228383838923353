package bench

import (
	"fmt"
	"strings"

	"gridqr/internal/core"
	"gridqr/internal/grid"
)

// OverlapRow compares a blocking algorithm variant against its
// compute/communication-overlap twin at one experiment point. The wait
// columns come from the measured telemetry critical path, not the model:
// every run is traced and the inter-site and total wait shares are read
// off the critical-path decomposition.
type OverlapRow struct {
	Algo          Algorithm
	Overlap       bool
	Seconds       float64
	Gflops        float64
	InterSiteWait float64 // critical-path wait on inter-site links (s)
	TotalWait     float64 // critical-path comm wait + idle (s)
	InterMsgs     int64
	TotalMsgs     int64
}

// OverlapStudy runs the overlap ablation on the full grid: TSQR with the
// blocking grid-tuned tree vs the flat-cross-site variant
// at (mTSQR, nTSQR), and blocking PDGEQRF vs lookahead PDGEQRF at
// (mQRF, nQRF) with NB = NX = nb so real block updates occur. The
// overlap variants move no extra data — the msgs columns confirm the
// traffic is identical — so any win is pure wait hiding.
func OverlapStudy(g *grid.Grid, mTSQR, nTSQR, mQRF, nQRF, nb int) []OverlapRow {
	var rows []OverlapRow
	point := func(r Run) {
		r.Traced = true
		meas := Execute(r)
		rows = append(rows, OverlapRow{
			Algo:          r.Algo,
			Overlap:       r.Overlap,
			Seconds:       meas.Seconds,
			Gflops:        meas.Gflops,
			InterSiteWait: meas.CriticalPath.InterSite,
			TotalWait:     meas.CriticalPath.Comm() + meas.CriticalPath.Idle,
			InterMsgs:     meas.Counters.Inter().Msgs,
			TotalMsgs:     meas.Counters.Total().Msgs,
		})
	}
	sites := len(g.Clusters)
	for _, overlap := range []bool{false, true} {
		point(Run{Grid: g, Sites: sites, M: mTSQR, N: nTSQR, Algo: TSQR,
			Tree: core.TreeGrid, Overlap: overlap})
	}
	for _, overlap := range []bool{false, true} {
		point(Run{Grid: g, Sites: sites, M: mQRF, N: nQRF, Algo: ScaLAPACK,
			NB: nb, NX: nb, Overlap: overlap})
	}
	return rows
}

// FormatOverlap renders the study as a text table.
func FormatOverlap(mTSQR, nTSQR, mQRF, nQRF, nb int, rows []OverlapRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Overlap ablation: TSQR M=%d N=%d; PDGEQRF M=%d N=%d NB=NX=%d; all sites ==\n",
		mTSQR, nTSQR, mQRF, nQRF, nb)
	fmt.Fprintf(&b, "%-22s %10s %10s %16s %14s %11s %11s\n",
		"variant", "time (s)", "Gflop/s", "inter wait (s)", "tot wait (s)", "inter msgs", "total msgs")
	for _, r := range rows {
		name := r.Algo.String()
		if r.Overlap {
			if r.Algo == TSQR {
				name += " overlapped"
			} else {
				name += " lookahead"
			}
		} else {
			name += " blocking"
		}
		fmt.Fprintf(&b, "%-22s %10.4f %10.1f %16.6f %14.6f %11d %11d\n",
			name, r.Seconds, r.Gflops, r.InterSiteWait, r.TotalWait, r.InterMsgs, r.TotalMsgs)
	}
	return b.String()
}
