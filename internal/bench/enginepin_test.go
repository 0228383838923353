package bench

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// runPinned runs body on a cost-only world and returns the event
// engine's statistics and an FNV-64a hash of every rank's final virtual
// clock.
func runPinned(g *grid.Grid, opts []mpi.Option, body func(*mpi.Ctx)) (mpi.EngineStats, uint64) {
	w := mpi.NewWorld(g, append([]mpi.Option{mpi.CostOnly()}, opts...)...)
	clocks := make([]float64, g.Procs())
	w.Run(func(ctx *mpi.Ctx) {
		body(ctx)
		clocks[ctx.Rank()] = ctx.Now()
	})
	h := fnv.New64a()
	var b [8]byte
	for _, c := range clocks {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c))
		h.Write(b[:])
	}
	return w.EngineStats(), h.Sum64()
}

// TestEventEnginePinned pins the event engine's scheduling, counter for
// counter and clock for clock, on the two runs sim_grid times: PDGEQR2
// on Grid'5000 at 2^22×64 and the 4096-rank multi-level weak-scaling
// point. The constants were recorded before the scheduler moved from
// goroutine handoffs to runtime coroutines; any change to dispatch
// order, parking or delivery moves them. Unparks is not in EngineStats;
// in a run that completes every park is ended by exactly one unpark
// (simnet's TestPropertyRandomPrograms checks Unparks == Parks), so
// Parks pins it too.
func TestEventEnginePinned(t *testing.T) {
	const ranks = 4096
	m := ranks * scaleRowsPerRank
	g5k, gScale := grid.Grid5000(), ScalePlatform(ranks)
	scaleStats := mpi.EngineStats{Engine: "event", Deliveries: 4095, PeakPending: 2048,
		Dispatches: 8190, Parks: 4094, PeakRunnable: 4096}
	for _, tc := range []struct {
		name  string
		g     *grid.Grid
		opts  []mpi.Option
		body  func(*mpi.Ctx)
		stats mpi.EngineStats
		hash  uint64
	}{
		{
			name: "pdgeqr2-grid5000",
			g:    g5k,
			body: func(ctx *mpi.Ctx) {
				scalapack.PDGEQR2(mpi.WorldComm(ctx), scalapack.Input{M: 1 << 22, N: 64,
					Offsets: scalapack.BlockOffsets(1<<22, g5k.Procs())})
			},
			// Every message is an allreduce's, resolved at one
			// rendezvous: one park per waiting member (255 × 127 calls),
			// nothing queued.
			stats: mpi.EngineStats{Engine: "event", Deliveries: 64770, PeakPending: 0,
				Dispatches: 32641, Parks: 32385, PeakRunnable: 256},
			hash: 0xdf181b023ef77cd7,
		},
		{
			// ScalePoint(4096, TSQR, TreeMultiLevel)'s world.
			name: "scale-multi-level-4096",
			g:    gScale,
			opts: []mpi.Option{mpi.Traced()},
			body: func(ctx *mpi.Ctx) {
				core.Factorize(mpi.WorldComm(ctx), core.Input{M: m, N: ScaleN,
					Offsets: scalapack.BlockOffsets(m, ranks)}, core.Config{Tree: core.TreeMultiLevel})
			},
			stats: scaleStats,
			hash:  0x6c6799e0907313e0,
		},
		{
			// The same world untraced: tracing must not move a clock or a
			// dispatch.
			name: "scale-multi-level-4096-untraced",
			g:    gScale,
			body: func(ctx *mpi.Ctx) {
				core.Factorize(mpi.WorldComm(ctx), core.Input{M: m, N: ScaleN,
					Offsets: scalapack.BlockOffsets(m, ranks)}, core.Config{Tree: core.TreeMultiLevel})
			},
			stats: scaleStats,
			hash:  0x6c6799e0907313e0,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stats, hash := runPinned(tc.g, tc.opts, tc.body)
			if stats != tc.stats {
				t.Errorf("engine stats %+v, pinned %+v", stats, tc.stats)
			}
			if hash != tc.hash {
				t.Errorf("final-clock hash %#x, pinned %#x", hash, tc.hash)
			}
		})
	}
	if _, stats := ScalePoint(ranks, TSQR, core.TreeMultiLevel); stats != scaleStats {
		t.Errorf("ScalePoint engine stats %+v, pinned %+v", stats, scaleStats)
	}
}
