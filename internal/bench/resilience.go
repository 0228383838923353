package bench

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// ResilienceRow is one fault scenario's outcome against FT-TSQR.
type ResilienceRow struct {
	Plan           string
	Outcome        string // "ok" or the typed abort reason
	Epochs         int
	Combines       int
	CombinesReused int
	Dead           int // ranks declared dead by the coordinator
	Faults         mpi.FaultCounts
	Residual       float64 // ‖A−Q̂R‖/‖A‖ on success (NaN on abort)
	Ortho          float64 // ‖Q̂ᵀQ̂−I‖_F on success (NaN on abort)
}

// resilienceScenario names one injected-fault configuration.
type resilienceScenario struct {
	name  string
	build func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan
}

func resilienceScenarios() []resilienceScenario {
	withTimeout := func(p *mpi.FaultPlan) *mpi.FaultPlan {
		p.RecvTimeout = 2 * time.Second
		return p
	}
	return []resilienceScenario{
		{"none", func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan { return nil }},
		{"kill-one", func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan {
			return withTimeout(mpi.NewFaultPlan(seed).Kill(1+int(seed)%(p-1), 3))
		}},
		{"kill-two", func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan {
			a := 1 + int(seed)%(p-1)
			b := 1 + int(seed+3)%(p-1)
			return withTimeout(mpi.NewFaultPlan(seed).Kill(a, 3).Kill(b, 3))
		}},
		{"kill-coordinator", func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan {
			return withTimeout(mpi.NewFaultPlan(seed).Kill(0, 2))
		}},
		{"drop-storm-10%", func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan {
			return withTimeout(mpi.NewFaultPlan(seed).
				Drop(mpi.AnyRank, mpi.AnyRank, mpi.AnyTag, 0.10, 0))
		}},
		{"delay-storm-40%", func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan {
			return withTimeout(mpi.NewFaultPlan(seed).
				Delay(mpi.AnyRank, mpi.AnyRank, mpi.AnyTag, 0.40, 2e-3, 0))
		}},
		// The platform's own per-site failure rates, scaled up by 10³ so a
		// one-hour horizon yields a realistic ~10% per-rank death
		// probability at bench scale (the unscaled Grid'5000 rate of one
		// failure per node-year is invisible over a single run).
		{"site-failure-rates", func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan {
			flaky := *g
			flaky.Clusters = append([]grid.Cluster(nil), g.Clusters...)
			for i := range flaky.Clusters {
				flaky.Clusters[i].FailureRate *= 1e3
			}
			return withTimeout(mpi.PlanFromFailureRates(&flaky, seed, 3600, 10))
		}},
	}
}

// resilienceGrid shrinks the platform to a data-carrying scale: the first
// two sites, four processes each, keeping every cluster's links and
// failure rate. FT-TSQR runs on real matrices (the recovered R is checked
// numerically), so the benchmark cannot use the cost-only 256-process
// worlds the throughput figures run on.
func resilienceGrid(g *grid.Grid) *grid.Grid {
	sub := g.Sites(min(2, len(g.Clusters)))
	shrunk := *sub
	shrunk.Clusters = append([]grid.Cluster(nil), sub.Clusters...)
	for i := range shrunk.Clusters {
		c := &shrunk.Clusters[i]
		if c.ProcsPerNode > 4 {
			c.ProcsPerNode = 4
		}
		c.Nodes = (4 + c.ProcsPerNode - 1) / c.ProcsPerNode
	}
	return &shrunk
}

// ResilienceStudy sweeps the named fault scenarios over FT-TSQR on a
// shrunken two-site slice of the platform and records, per scenario, how
// the factorization concluded: recovered (with the recovery effort —
// extra epochs, redone vs cache-reused combines) or aborted with which
// typed reason. Successful runs are verified numerically via Q̂ = A·R⁻¹.
func ResilienceStudy(g *grid.Grid, m, n int, seed int64) []ResilienceRow {
	sub := resilienceGrid(g)
	p := sub.Procs()
	global := matrix.Random(m, n, seed)
	offsets := scalapack.BlockOffsets(m, p)
	var rows []ResilienceRow
	for _, sc := range resilienceScenarios() {
		w := mpi.NewWorld(sub, mpi.WithFaults(sc.build(seed, p, sub)))
		var mu sync.Mutex
		var res *core.FTResult
		var rank0Err error
		w.Run(func(ctx *mpi.Ctx) {
			comm := mpi.WorldComm(ctx)
			in := core.Input{M: m, N: n, Offsets: offsets,
				Local: scalapack.Distribute(global, offsets, ctx.Rank())}
			r, err := core.FactorizeFT(comm, in, core.Config{})
			if ctx.Rank() == 0 {
				mu.Lock()
				res, rank0Err = r, err
				mu.Unlock()
			}
		})
		row := ResilienceRow{Plan: sc.name, Faults: w.FaultCounts(),
			Residual: math.NaN(), Ortho: math.NaN()}
		if res != nil && res.R != nil {
			row.Outcome = "ok"
			row.Epochs = res.Stats.Epochs
			row.Combines = res.Stats.Combines
			row.CombinesReused = res.Stats.CombinesReused
			row.Dead = len(res.Stats.Dead)
			q := qHatFromR(global, res.R)
			row.Residual = matrix.ResidualQR(global, q, res.R)
			row.Ortho = matrix.OrthoError(q)
		} else {
			row.Outcome = abortReason(rank0Err)
			var fe *core.FTError
			if errors.As(rank0Err, &fe) {
				row.Dead = len(fe.Dead)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// abortReason renders rank 0's typed error for the table.
func abortReason(err error) string {
	var fe *core.FTError
	var rf *mpi.RankFailedError
	var te *mpi.TimeoutError
	switch {
	case errors.As(err, &fe):
		return "abort: " + fe.Reason.String()
	case errors.As(err, &rf):
		return "abort: peer failed"
	case errors.As(err, &te):
		return "abort: recv timeout"
	case err == nil:
		return "abort: coordinator dead"
	default:
		return "abort: " + err.Error()
	}
}

// qHatFromR recovers Q̂ = A·R⁻¹ by column back-substitution so a
// successful run's numerics can be verified from R alone.
func qHatFromR(a, r *matrix.Dense) *matrix.Dense {
	q := a.Clone()
	for j := 0; j < a.Cols; j++ {
		qj := q.Col(j)
		for k := 0; k < j; k++ {
			c := r.At(k, j)
			if c == 0 {
				continue
			}
			qk := q.Col(k)
			for i := range qj {
				qj[i] -= c * qk[i]
			}
		}
		d := r.At(j, j)
		for i := range qj {
			qj[i] /= d
		}
	}
	return q
}

// FormatResilience renders the study.
func FormatResilience(g *grid.Grid, m, n int, rows []ResilienceRow) string {
	var b strings.Builder
	sub := resilienceGrid(g)
	fmt.Fprintf(&b, "== Resilience: FT-TSQR under injected faults (M=%d, N=%d, P=%d, %d site(s)) ==\n",
		m, n, sub.Procs(), len(sub.Clusters))
	fmt.Fprintf(&b, "%-18s %-26s %6s %8s %7s %5s %6s %6s %6s %10s %10s\n",
		"fault plan", "outcome", "epochs", "combines", "reused", "dead",
		"drops", "delays", "kills", "‖A−QR‖/‖A‖", "‖QᵀQ−I‖")
	for _, r := range rows {
		res, ortho := "-", "-"
		if !math.IsNaN(r.Residual) {
			res = fmt.Sprintf("%.2e", r.Residual)
			ortho = fmt.Sprintf("%.2e", r.Ortho)
		}
		fmt.Fprintf(&b, "%-18s %-26s %6d %8d %7d %5d %6d %6d %6d %10s %10s\n",
			r.Plan, r.Outcome, r.Epochs, r.Combines, r.CombinesReused, r.Dead,
			r.Faults.Drops, r.Faults.Delays, r.Faults.Kills, res, ortho)
	}
	return b.String()
}
