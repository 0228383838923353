//go:build !race

// The race detector's sync.Pool drops pooled items at random, so an
// allocation bound that leans on a pool holds only without it.

package core

import (
	"runtime"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// TestFactorizeMergeAllocations bounds what a data-mode Factorize
// allocates per merge on a 16-rank tree at n = 64: the packed triangle on
// the wire (twice — packed by the sender, copied by the transport), the
// n×n V it is unpacked into, tau and the log entry. The cloning merge
// allocated two more n×n matrices each; the bound has room for half of
// one.
func TestFactorizeMergeAllocations(t *testing.T) {
	g := grid.SmallTestGrid(2, 8, 1)
	p, n := g.Procs(), 64
	m := 128 * p
	offsets := scalapack.BlockOffsets(m, p)
	global := matrix.Random(m, n, 3)
	locals := make([]*matrix.Dense, p)
	run := func(merge bool) uint64 {
		for r := range locals {
			locals[r] = scalapack.Distribute(global, offsets, r)
		}
		w := mpi.NewWorld(g)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w.Run(func(ctx *mpi.Ctx) {
			comm := mpi.WorldComm(ctx)
			in := Input{M: m, N: n, Offsets: offsets, Local: locals[ctx.Rank()]}
			if merge {
				Factorize(comm, in, Config{Tree: TreeGrid})
			} else {
				factorLeaf(comm, in, scheduleFor(comm, Config{Tree: TreeGrid}).l.mine(ctx.Rank()), Config{})
			}
		})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run(true) // warm the pools and the schedule cache
	leaves, whole := run(false), run(true)
	perMerge := float64(whole-leaves) / float64(p-1)
	packed, dense := float64(8*n*(n+1)/2), float64(8*n*n)
	if limit := 2*packed + 1.5*dense; perMerge > limit {
		t.Fatalf("Factorize allocates %.0f bytes per merge beyond its leaves, want at most %.0f (V %.0f, packed %.0f)",
			perMerge, limit, dense, packed)
	}
}
