package core

import (
	"sync"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// TestSnapshotEqualsFactorize: SnapshotR over the per-rank leaf R's is
// Factorize's R bit for bit, at Factorize's message count, on every tree
// — including shuffled trees that root away from rank 0, whose delivery
// hop no stream or sched test selects — with R on rank 0 only and the
// running R's left untouched.
func TestSnapshotEqualsFactorize(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2) // 8 procs, 2 clusters, 2 per node
	m, n := 96, 6
	p := g.Procs()
	offsets := scalapack.BlockOffsets(m, p)
	global := matrix.Random(m, n, 29)

	cfgs := []Config{{Tree: TreeGrid}, {Tree: TreeBinary}, {Tree: TreeFlat}, {Tree: TreeMultiLevel}}
	for seed := int64(1); seed <= 6; seed++ {
		cfgs = append(cfgs, Config{Tree: TreeBinaryShuffled, ShuffleSeed: seed})
	}
	delivered := 0
	for _, cfg := range cfgs {
		ref, refMsgs := referenceRun(t, g, global, m, n, cfg)

		w := mpi.NewWorld(g)
		snaps := make([]*matrix.Dense, p)
		mutated := make([]bool, p)
		var mu sync.Mutex
		w.Run(func(ctx *mpi.Ctx) {
			leaf, _ := lapack.FoldQR(scalapack.Distribute(global, offsets, ctx.Rank()), 0, false)
			before := leaf.Clone()
			snap := SnapshotR(mpi.WorldComm(ctx), leaf, n, cfg)
			mu.Lock()
			snaps[ctx.Rank()] = snap
			mutated[ctx.Rank()] = !bitwiseEqual(leaf, before)
			mu.Unlock()
		})
		if !bitwiseEqual(snaps[0], ref) {
			t.Errorf("%v seed %d: snapshot differs bitwise from Factorize", cfg.Tree, cfg.ShuffleSeed)
		}
		for rk := range snaps {
			if rk > 0 && snaps[rk] != nil {
				t.Errorf("%v seed %d: rank %d returned an R", cfg.Tree, cfg.ShuffleSeed, rk)
			}
			if mutated[rk] {
				t.Errorf("%v seed %d: rank %d's running R was mutated", cfg.Tree, cfg.ShuffleSeed, rk)
			}
		}
		msgs := w.Counters().Total().Msgs
		if msgs != refMsgs {
			t.Errorf("%v seed %d: snapshot msgs %d != Factorize %d", cfg.Tree, cfg.ShuffleSeed, msgs, refMsgs)
		}
		if msgs == int64(p) { // p−1 merges plus the delivery hop
			delivered++
		}
	}
	if delivered == 0 {
		t.Error("no shuffle seed rooted away from rank 0: the delivery hop went untested")
	}
}
