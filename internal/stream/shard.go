package stream

import (
	"gridqr/internal/matrix"
)

// Row sharding for the distributed stream is strided: global row g
// belongs to rank g mod p. Striding — not contiguous blocks — is what
// extends the bitwise granularity contract across ranks: the
// subsequence of global rows a rank folds (in global row order) depends
// only on (rank, p), never on how the stream was cut into arrival
// blocks, so re-blocking the ingest cannot move a row between ranks or
// reorder a rank's rows.
//
// Rows are generated deterministically per element from a seed
// (matrix.RandomAt), so any rank can rematerialize any block at any
// time — the re-ingest path after a fault needs no second copy of the
// data.

// firstOwned returns the smallest global row ≥ lo owned by rank.
func firstOwned(lo, rank, p int) int {
	return lo + ((rank-lo%p)%p+p)%p
}

// ShardCount returns how many global rows in [lo, hi) rank owns.
func ShardCount(lo, hi, rank, p int) int {
	first := firstOwned(lo, rank, p)
	if first >= hi {
		return 0
	}
	return (hi-first-1)/p + 1
}

// ShardRows materializes rank's rows of the global row range [lo, hi)
// for an n-column stream seeded by seed, in global row order. Rounds do
// not build it: they generate the same rows straight into the fold
// panel (Folder.pushShard).
func ShardRows(seed int64, n, lo, hi, rank, p int) *matrix.Dense {
	a := matrix.New(ShardCount(lo, hi, rank, p), n)
	matrix.FillRandomRows(a, firstOwned(lo, rank, p), p, seed)
	return a
}

// pushShard is Push(ShardRows(seed, f.N(), lo, hi, rank, p)) without
// the block: each row is generated into the panel buffer row it would
// have been copied to, so the running R is the same bit for bit.
func (f *Folder) pushShard(seed int64, lo, hi, rank, p int) {
	first := firstOwned(lo, rank, p)
	f.walk(ShardCount(lo, hi, rank, p), func(dst *matrix.Dense, off int) {
		matrix.FillRandomRows(dst, first+off*p, p, seed)
	})
}

// GlobalRows materializes the full [lo, hi) row range in global row
// order — the reference concatenation the tests factor one-shot.
func GlobalRows(seed int64, n, lo, hi int) *matrix.Dense {
	return ShardRows(seed, n, lo, hi, 0, 1)
}
