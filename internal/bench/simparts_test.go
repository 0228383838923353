package bench

import (
	"runtime"
	"testing"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
	"gridqr/internal/simnet"
)

// handoffNs times the event engine's bare handoff in this process: two
// simnet procs pass the turn back and forth, each pass one dispatch and
// one park, with nothing else to do. The best of three runs of k passes
// is returned, in nanoseconds per dispatch.
func handoffNs(k int) float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		s := simnet.New(2, func(int) float64 { return 0 })
		turn, parked := 0, [2]bool{}
		start := time.Now()
		s.Run(func(id int) {
			for i := 0; i < k; i++ {
				for turn != id {
					parked[id] = true
					s.Park()
				}
				turn = 1 - id
				if parked[turn] {
					parked[turn] = false
					s.Unpark(turn)
				}
			}
		})
		ns := float64(time.Since(start).Nanoseconds()) / float64(s.Stats().Dispatches)
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// BenchmarkSimGridParts times each part of sim_grid's op on its own
// cost-only world — PDGEQR2 on Grid'5000 at 2^22×64, QCG-TSQR R and Q+R
// at that point, and the 4096-rank multi-level weak-scaling point — and
// reports each part's wall time per engine dispatch, collected between
// runs outside the timing as sim_grid collects between ops, over the bare
// handoff measured in the same process (dispatch/handoff): how far the
// part runs from the engine's own bound, a ratio that carries across
// hosts where a rate does not.
//
//	go test -run '^$' -bench SimGridParts -benchtime 20x ./internal/bench
func BenchmarkSimGridParts(b *testing.B) {
	handoff := handoffNs(200000)
	g5k := grid.Grid5000()
	const m, n = 1 << 22, 64
	offsets := scalapack.BlockOffsets(m, g5k.Procs())
	tsqr := func(wantQ bool) func(*mpi.Ctx) {
		return func(ctx *mpi.Ctx) {
			core.Factorize(mpi.WorldComm(ctx), core.Input{M: m, N: n, Offsets: offsets},
				core.Config{Tree: core.TreeGrid, WantQ: wantQ})
		}
	}
	const ranks = 4096
	scaleM := ranks * scaleRowsPerRank
	scaleOffsets := scalapack.BlockOffsets(scaleM, ranks)
	for _, part := range []struct {
		name string
		g    *grid.Grid
		body func(*mpi.Ctx)
	}{
		{"pdgeqr2", g5k, func(ctx *mpi.Ctx) {
			scalapack.PDGEQR2(mpi.WorldComm(ctx), scalapack.Input{M: m, N: n, Offsets: offsets})
		}},
		{"tsqr-r", g5k, tsqr(false)},
		{"tsqr-qr", g5k, tsqr(true)},
		{"scale-4096", ScalePlatform(ranks), func(ctx *mpi.Ctx) {
			core.Factorize(mpi.WorldComm(ctx), core.Input{M: scaleM, N: ScaleN, Offsets: scaleOffsets},
				core.Config{Tree: core.TreeMultiLevel})
		}},
	} {
		b.Run(part.name, func(b *testing.B) {
			var st mpi.EngineStats
			for i := 0; i < b.N; i++ {
				// As sim_grid does: collect between runs, untimed.
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				st, _ = runPinned(part.g, nil, part.body)
			}
			perDispatch := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(st.Dispatches)
			b.ReportMetric(perDispatch, "ns/dispatch")
			b.ReportMetric(handoff, "ns/handoff")
			b.ReportMetric(perDispatch/handoff, "dispatch/handoff")
			b.ReportMetric(float64(st.Deliveries), "msgs/op")
			b.ReportMetric(float64(st.Dispatches), "dispatches/op")
		})
	}
}
