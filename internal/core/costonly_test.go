package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// rankEnd is where one rank finished: its virtual clock and its own
// traffic and flop tallies.
type rankEnd struct {
	clock  float64
	counts mpi.CounterSnapshot
}

// runEnds runs body on every rank of a fresh world built with opt and
// returns each rank's end.
func runEnds(g *grid.Grid, opt mpi.Option, body func(ctx *mpi.Ctx)) []rankEnd {
	w := mpi.NewWorld(g, opt)
	ends := make([]rankEnd, g.Procs())
	w.Run(func(ctx *mpi.Ctx) {
		body(ctx)
		ends[ctx.Rank()] = rankEnd{clock: ctx.Now(), counts: ctx.LocalCounters()}
	})
	return ends
}

// sameEnds reports the first rank whose end differs between a data run
// and a cost-only run: clocks and per-class messages and bytes exactly,
// flops to 1e-12 relative.
func sameEnds(t *testing.T, name string, data, cost []rankEnd) {
	t.Helper()
	if len(data) != len(cost) {
		t.Fatalf("%s: %d data ranks vs %d cost-only ranks", name, len(data), len(cost))
	}
	for r := range data {
		d, c := data[r], cost[r]
		if d.clock != c.clock {
			t.Errorf("%s: rank %d ends at %g (data) vs %g (cost-only)", name, r, d.clock, c.clock)
		}
		if d.counts.PerClass != c.counts.PerClass {
			t.Errorf("%s: rank %d traffic differs\ndata: %+v\ncost: %+v", name, r, d.counts.PerClass, c.counts.PerClass)
		}
		if diff := d.counts.Flops - c.counts.Flops; math.Abs(diff) > 1e-12*math.Max(1, math.Abs(c.counts.Flops)) {
			t.Errorf("%s: rank %d flops %g (data) vs %g (cost-only)", name, r, d.counts.Flops, c.counts.Flops)
		}
	}
}

// TestDataAndCostOnlyWorldsAgree pins the premise behind every cost-only
// figure — QR is data-oblivious — on the paths no other test compares
// across modes: the same run on a virtual data world and on a cost-only
// world ends every rank at the same virtual clock, with the same
// per-class messages and bytes and the same flops.
func TestDataAndCostOnlyWorldsAgree(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2) // 8 procs, 2 clusters
	m, n := 256, 12
	offsets := scalapack.BlockOffsets(m, g.Procs())
	global := matrix.Random(m, n, 41)
	input := func(ctx *mpi.Ctx) Input {
		in := Input{M: m, N: n, Offsets: offsets}
		if ctx.HasData() {
			in.Local = scalapack.Distribute(global, offsets, ctx.Rank())
		}
		return in
	}
	cases := []struct {
		name string
		run  func(opt mpi.Option) []rankEnd
	}{
		{"MGS", func(opt mpi.Option) []rankEnd {
			return runEnds(g, opt, func(ctx *mpi.Ctx) { MGS(mpi.WorldComm(ctx), input(ctx)) })
		}},
		{"PDGEQRF", func(opt mpi.Option) []rankEnd {
			return runEnds(g, opt, func(ctx *mpi.Ctx) {
				scalapack.PDGEQRF(mpi.WorldComm(ctx), scalapack.Input(input(ctx)), 4, 4)
			})
		}},
		{"PDGEQRFLookahead", func(opt mpi.Option) []rankEnd {
			return runEnds(g, opt, func(ctx *mpi.Ctx) {
				scalapack.PDGEQRFLookahead(mpi.WorldComm(ctx), scalapack.Input(input(ctx)), 4, 4)
			})
		}},
		{"PDORG2R", func(opt mpi.Option) []rankEnd {
			return runEnds(g, opt, func(ctx *mpi.Ctx) {
				comm := mpi.WorldComm(ctx)
				scalapack.PDORG2R(comm, scalapack.PDGEQR2(comm, scalapack.Input(input(ctx))))
			})
		}},
		{"FactorizeStaged+ResumeStaged", func(opt mpi.Option) []rankEnd {
			gate := NewPreemptGate()
			gate.RequestAt(2)
			results := make([]*StagedResult, g.Procs())
			var mu sync.Mutex
			ends := runEnds(g, opt, func(ctx *mpi.Ctx) {
				res := FactorizeStaged(mpi.WorldComm(ctx), input(ctx), Config{Tree: TreeGrid}, gate)
				mu.Lock()
				results[ctx.Rank()] = res
				mu.Unlock()
			})
			frags, preempted := collectFrags(results)
			if !preempted {
				t.Fatal("staged run was not stopped mid-tree")
			}
			sc := AssembleCheckpoint(frags)
			return append(ends, runEnds(g, opt, func(ctx *mpi.Ctx) {
				ResumeStaged(mpi.WorldComm(ctx), sc, nil)
			})...)
		}},
		{"SnapshotR", func(opt mpi.Option) []rankEnd {
			return runEnds(g, opt, func(ctx *mpi.Ctx) {
				var r *matrix.Dense
				if in := input(ctx); in.Local != nil {
					r, _ = lapack.FoldQR(in.Local, 0, false)
				}
				SnapshotR(mpi.WorldComm(ctx), r, n, Config{Tree: TreeGrid})
			})
		}},
		{"CholeskyQR", func(opt mpi.Option) []rankEnd {
			return runEnds(g, opt, func(ctx *mpi.Ctx) { CholeskyQR(mpi.WorldComm(ctx), input(ctx)) })
		}},
		{"TSLUFactorize", func(opt mpi.Option) []rankEnd {
			return runEnds(g, opt, func(ctx *mpi.Ctx) {
				TSLUFactorize(mpi.WorldComm(ctx), input(ctx), TSLUConfig{Tree: TreeGrid})
			})
		}},
	}
	for _, tc := range cases {
		sameEnds(t, tc.name, tc.run(mpi.Virtual()), tc.run(mpi.CostOnly()))
	}
}

// TestImplicitQApplyEndsPinned pins the one allreduce caller that has no
// cost-only run: an implicit-Q apply needs the factorization's stored
// reflectors (Config.KeepFactors requires data mode), so its restSq
// allreduce runs on data worlds only. LeastSquares factors, applies Qᵀ
// (the restSq allreduce) and broadcasts x; the hash covers every rank's
// final clock, per-class traffic and flops, recorded before cost-only
// collectives stopped carrying payloads.
func TestImplicitQApplyEndsPinned(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	m, n := 256, 12
	offsets := scalapack.BlockOffsets(m, g.Procs())
	a, b := matrix.Random(m, n, 41), matrix.Random(m, 3, 42)
	ends := runEnds(g, mpi.Virtual(), func(ctx *mpi.Ctx) {
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(a, offsets, ctx.Rank())}
		LeastSquares(mpi.WorldComm(ctx), in, scalapack.Distribute(b, offsets, ctx.Rank()), Config{Tree: TreeGrid})
	})
	h := fnv.New64a()
	for _, e := range ends {
		fmt.Fprintf(h, "%x %+v %x|", math.Float64bits(e.clock), e.counts.PerClass, math.Float64bits(e.counts.Flops))
	}
	if got, want := h.Sum64(), uint64(0xd35bcde8336a2bf9); got != want {
		t.Errorf("implicit-Q apply ends hash %#x, pinned %#x", got, want)
	}
}
