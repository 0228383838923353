//go:build !race

// The race detector's sync.Pool drops pooled items at random, so an
// allocation bound that leans on a pool holds only without it.

package stream

import (
	"runtime"
	"testing"
)

// TestRoundIngestAllocations: once the panel buffer exists, a round's
// ingest of one rank's shard of a block allocates no block — the rows
// are generated into the panel, and the fold's workspace is pooled.
func TestRoundIngestAllocations(t *testing.T) {
	const n, blockRows, p, seed, blocks = 64, 4096, 2, 5, 8
	f := NewFolder(n, 0)
	f.pushShard(seed, 0, blockRows, 0, p) // grows the panel
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := 1; b <= blocks; b++ {
		f.pushShard(seed, b*blockRows, (b+1)*blockRows, 0, p)
	}
	runtime.ReadMemStats(&after)
	perBlock := (after.TotalAlloc - before.TotalAlloc) / blocks
	if limit := uint64(64 << 10); perBlock > limit {
		t.Fatalf("ingesting a %d×%d shard allocates %d bytes, want ≤ %d (a block is %d)",
			blockRows/p, n, perBlock, limit, 8*n*blockRows/p)
	}
	t.Logf("%d bytes per %d×%d shard", perBlock, blockRows/p, n)

	// A round clones the committed state, ingests into the clone and
	// commits it: the clone takes the panel over, so a round that ends
	// on a panel boundary allocates the clone's R and no panel.
	const rounds = 8
	f.pushShard(seed, (blocks+1)*blockRows, (blocks+2)*blockRows, 0, p) // onto a panel boundary
	cur := f
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		b := blocks + 2 + 2*r
		cur = cur.Clone()
		cur.pushShard(seed, b*blockRows, (b+2)*blockRows, 0, p)
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	if limit := uint64(64<<10 + 8*n*n); perRound > limit {
		t.Fatalf("a round of two blocks (a %d×%d shard) allocates %d bytes, want ≤ %d (a panel is %d)",
			2*blockRows/p, n, perRound, limit, 8*n*f.PanelRows())
	}
	t.Logf("%d bytes per round", perRound)
}
