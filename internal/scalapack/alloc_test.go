//go:build !race

// The race detector instruments allocation, so an allocation bound holds
// only without it.

package scalapack

import (
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/mpi"
)

// TestCostOnlyPDGEQR2Allocations bounds what a cost-only PDGEQR2 allocates
// per message on an 8-rank grid: 2(p−1) messages per allreduce, two
// allreduces per column. Nothing may be allocated per message or per
// column: the 0.24 allocations per message left are the world's, each
// rank coroutine's, communicator's and panel buffer's, and each
// communicator's allreduce rendezvous.
func TestCostOnlyPDGEQR2Allocations(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	m, n := 1024, 32
	offsets := BlockOffsets(m, g.Procs())
	var msgs int64
	allocs := testing.AllocsPerRun(5, func() {
		w := mpi.NewWorld(g, mpi.CostOnly())
		w.Run(func(ctx *mpi.Ctx) {
			PDGEQR2(mpi.WorldComm(ctx), Input{M: m, N: n, Offsets: offsets})
		})
		msgs = w.Counters().Total().Msgs
	})
	perMsg := allocs / float64(msgs)
	t.Logf("%.0f allocations for %d messages: %.2f per message", allocs, msgs, perMsg)
	if perMsg > 0.25 {
		t.Errorf("cost-only PDGEQR2 allocates %.2f times per message, bound 0.25", perMsg)
	}
}
