package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"gridqr/internal/grid"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// The chaos harness: sweep seeds × fault plans × (P, sites, shapes) and
// hold FT-TSQR to its contract — whenever a run reports success the
// factorization is numerically sound (‖A−QR‖/‖A‖ and ‖QᵀQ−I‖ within
// 100·ε·√(m·n)), and whenever it cannot succeed it returns a typed error;
// it never hangs (each world runs under a watchdog) and never panics.

// chaosPlan names one adversarial scenario built for a given seed and
// world size.
type chaosPlan struct {
	name  string
	build func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan
}

func chaosPlans() []chaosPlan {
	const timeout = 2 * time.Second
	withTimeout := func(p *mpi.FaultPlan) *mpi.FaultPlan {
		p.RecvTimeout = timeout
		return p
	}
	return []chaosPlan{
		{"none", func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan {
			return nil
		}},
		{"kill-one", func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan {
			victim := 1 + int(seed)%(p-1)
			return withTimeout(mpi.NewFaultPlan(seed).Kill(victim, int(seed)%6))
		}},
		{"kill-two", func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan {
			a := 1 + int(seed)%(p-1)
			b := 1 + int(seed+3)%(p-1)
			return withTimeout(mpi.NewFaultPlan(seed).Kill(a, int(seed)%5).Kill(b, int(seed+1)%7))
		}},
		{"kill-coordinator", func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan {
			return withTimeout(mpi.NewFaultPlan(seed).Kill(0, int(seed)%8))
		}},
		{"drop-storm", func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan {
			return withTimeout(mpi.NewFaultPlan(seed).
				Drop(mpi.AnyRank, mpi.AnyRank, mpi.AnyTag, 0.10, 0))
		}},
		{"delay-storm-with-kill", func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan {
			return withTimeout(mpi.NewFaultPlan(seed).
				Delay(mpi.AnyRank, mpi.AnyRank, mpi.AnyTag, 0.4, 2e-3, 0).
				Kill(1+int(seed)%(p-1), int(seed)%6))
		}},
		{"site-failure-rates", func(seed int64, p int, g *grid.Grid) *mpi.FaultPlan {
			flaky := *g
			flaky.Clusters = append([]grid.Cluster(nil), g.Clusters...)
			for i := range flaky.Clusters {
				flaky.Clusters[i].FailureRate = 5e-5
			}
			return withTimeout(mpi.PlanFromFailureRates(&flaky, seed, 3600, 10))
		}},
	}
}

// chaosOutcome is one world's result: rank 0's view plus every surviving
// rank's error.
type chaosOutcome struct {
	res  *FTResult
	errs []error
}

// runChaosWorld executes FT-TSQR under a plan with a hang watchdog.
func runChaosWorld(t *testing.T, g *grid.Grid, plan *mpi.FaultPlan, global *matrix.Dense, n int) chaosOutcome {
	t.Helper()
	p := g.Procs()
	offsets := scalapack.BlockOffsets(global.Rows, p)
	w := mpi.NewWorld(g, mpi.WithFaults(plan))
	out := chaosOutcome{errs: make([]error, p)}
	var mu sync.Mutex
	var cfg Config
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(func(ctx *mpi.Ctx) {
			comm := mpi.WorldComm(ctx)
			in := Input{M: global.Rows, N: n, Offsets: offsets,
				Local: scalapack.Distribute(global, offsets, ctx.Rank())}
			res, err := FactorizeFT(comm, in, cfg)
			mu.Lock()
			out.errs[ctx.Rank()] = err
			if ctx.Rank() == 0 {
				out.res = res
			}
			mu.Unlock()
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("chaos run hung (plan watchdog)")
	}
	return out
}

// qFromR recovers Q̂ = A·R⁻¹ by back-substitution, so the orthogonality
// of the computed factorization can be checked from R alone.
func qFromR(a, r *matrix.Dense) *matrix.Dense {
	n := a.Cols
	q := a.Clone()
	for j := 0; j < n; j++ {
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

func TestChaosHarness(t *testing.T) {
	type shape struct{ m, n int }
	grids := []*grid.Grid{
		grid.SmallTestGrid(2, 2, 1), // 4 procs, 2 sites
		grid.SmallTestGrid(2, 4, 1), // 8 procs, 2 sites
		grid.SmallTestGrid(3, 2, 2), // 12 procs, 3 sites
	}
	shapes := []shape{{96, 5}, {200, 8}}
	seeds := []int64{1, 2, 5}
	if testing.Short() {
		grids = grids[:2]
		shapes = shapes[:1]
		seeds = seeds[:2]
	}
	successes, aborts := 0, 0
	for _, g := range grids {
		for _, sh := range shapes {
			for _, seed := range seeds {
				global := matrix.Random(sh.m, sh.n, seed)
				for _, cp := range chaosPlans() {
					name := fmt.Sprintf("p%d/m%dn%d/seed%d/%s", g.Procs(), sh.m, sh.n, seed, cp.name)
					t.Run(name, func(t *testing.T) {
						out := runChaosWorld(t, g, cp.build(seed, g.Procs(), g), global, sh.n)
						// Every surviving rank's error must be typed.
						for r, err := range out.errs {
							if err == nil {
								continue
							}
							var fe *FTError
							var rf *mpi.RankFailedError
							var te *mpi.TimeoutError
							if !errors.As(err, &fe) && !errors.As(err, &rf) && !errors.As(err, &te) {
								t.Errorf("rank %d returned an untyped error: %v", r, err)
							}
						}
						if out.res == nil || out.res.R == nil {
							aborts++
							return
						}
						successes++
						tol := 100 * 2.220446049250313e-16 * math.Sqrt(float64(sh.m*sh.n))
						q := qFromR(global, out.res.R)
						if res := matrix.ResidualQR(global, q, out.res.R); res > tol {
							t.Errorf("‖A−QR‖/‖A‖ = %.3e > %.3e", res, tol)
						}
						if oe := matrix.OrthoError(q); oe > tol {
							t.Errorf("‖QᵀQ−I‖ = %.3e > %.3e", oe, tol)
						}
					})
				}
			}
		}
	}
	if successes == 0 {
		t.Errorf("chaos sweep had no successful factorization")
	}
	if aborts == 0 {
		t.Errorf("chaos sweep had no typed abort; the sweep is not adversarial enough")
	}
	t.Logf("chaos sweep: %d successes, %d typed aborts", successes, aborts)
}
