package stream

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mmio"
	"gridqr/internal/mpi"
)

// bitEqual compares two matrices bit for bit (no tolerance).
func bitEqual(a, b *matrix.Dense) bool { return matrix.Equal(a, b, 0) }

// pushSplit feeds rows [0, m) of the seeded stream through a fresh
// folder in the given block sizes and returns the snapshot.
func pushSplit(n, panel int, seed int64, splits []int) *matrix.Dense {
	f := NewFolder(n, panel)
	lo := 0
	for _, k := range splits {
		f.Push(GlobalRows(seed, n, lo, lo+k))
		lo += k
	}
	return f.SnapshotLocal()
}

// TestFolderGranularityInvariance is the bitwise contract: any way of
// cutting the same row stream into blocks — including the one-shot
// single block — produces the identical R, bit for bit.
func TestFolderGranularityInvariance(t *testing.T) {
	const n, m, seed = 6, 100, 3
	for _, panel := range []int{0, 1, 4, n, 3 * n} {
		oneShot := pushSplit(n, panel, seed, []int{m})
		for _, splits := range [][]int{
			{1, 99}, {50, 50}, {13, 13, 13, 13, 13, 13, 13, 9},
			{99, 1}, {7, 0, 93}, {25, 25, 25, 25},
		} {
			if got := pushSplit(n, panel, seed, splits); !bitEqual(got, oneShot) {
				t.Fatalf("panel=%d splits=%v: R differs from one-shot", panel, splits)
			}
		}
		// Row-by-row: the extreme split.
		rowByRow := make([]int, m)
		for i := range rowByRow {
			rowByRow[i] = 1
		}
		if got := pushSplit(n, panel, seed, rowByRow); !bitEqual(got, oneShot) {
			t.Fatalf("panel=%d: row-by-row R differs from one-shot", panel)
		}
	}
}

// TestFolderMatchesLocalQR validates the math: the folded R equals the
// in-memory blocked QR of the same rows after sign normalization.
func TestFolderMatchesLocalQR(t *testing.T) {
	const n, m, seed = 8, 120, 11
	a := GlobalRows(seed, n, 0, m)
	want := core.FactorizeLocal(a, 0)
	lapack.NormalizeRSigns(want, nil)
	for _, panel := range []int{0, 5, 2 * n} {
		f := NewFolder(n, panel)
		f.Push(a)
		got := f.SnapshotLocal()
		lapack.NormalizeRSigns(got, nil)
		if !matrix.Equal(got, want, 1e-10) {
			t.Fatalf("panel=%d: folded R differs from local QR", panel)
		}
	}
}

// TestSnapshotNonDestructive: snapshotting mid-stream (with a partial
// panel in the buffer) must not perturb subsequent folds — the final R
// is bitwise the same with or without intermediate snapshots, and the
// mid-stream snapshot equals a fresh fold of the prefix.
func TestSnapshotNonDestructive(t *testing.T) {
	const n, seed = 5, 17
	plain := NewFolder(n, 0)
	snappy := NewFolder(n, 0)
	lo := 0
	for _, k := range []int{3, 8, 1, 21, 7} { // mostly partial panels
		blk := GlobalRows(seed, n, lo, lo+k)
		plain.Push(blk)
		snappy.Push(blk)
		lo += k
		mid := snappy.SnapshotLocal()
		if want := pushSplit(n, 0, seed, []int{lo}); !bitEqual(mid, want) {
			t.Fatalf("after %d rows: snapshot differs from fresh fold of prefix", lo)
		}
	}
	if !bitEqual(plain.SnapshotLocal(), snappy.SnapshotLocal()) {
		t.Fatal("intermediate snapshots perturbed the stream")
	}
	if plain.Rows() != lo || snappy.Rows() != lo {
		t.Fatalf("row count %d/%d, want %d", plain.Rows(), snappy.Rows(), lo)
	}
}

// TestSnapshotZeroRows: the empty stream snapshots to the zero matrix.
func TestSnapshotZeroRows(t *testing.T) {
	r := NewFolder(4, 0).SnapshotLocal()
	if r.Rows != 4 || r.Cols != 4 || matrix.NormFrob(r) != 0 {
		t.Fatalf("empty snapshot = %v", r)
	}
}

// TestFolderClone: the clone diverges independently — the rollback
// primitive behind round retries.
func TestFolderClone(t *testing.T) {
	const n, seed = 4, 23
	f := NewFolder(n, 0)
	f.Push(GlobalRows(seed, n, 0, 13))
	c := f.Clone()
	f.Push(GlobalRows(seed, n, 13, 40))
	if !bitEqual(c.SnapshotLocal(), pushSplit(n, 0, seed, []int{13})) {
		t.Fatal("clone tracked the original's folds")
	}
	if !bitEqual(f.SnapshotLocal(), pushSplit(n, 0, seed, []int{40})) {
		t.Fatal("original perturbed by cloning")
	}
	// Re-folding the clone reproduces the original bitwise: the
	// checkpoint-is-the-R argument.
	c.Push(GlobalRows(seed, n, 13, 40))
	if !bitEqual(c.SnapshotLocal(), f.SnapshotLocal()) {
		t.Fatal("resumed clone differs from uninterrupted original")
	}
}

// TestLeafEqualsFolder: the TSQR leaf and the streaming fold are one
// kernel with one block rule, so a one-rank Factorize of a leaf on the
// blocked side of lapack.FoldQR's guard (12–96 columns, more than 4 MiB)
// equals pushing the same rows through a Folder, bit for bit — the leaf
// factors its blocks in place on strided row views, the Folder in its
// compact panel buffer, and the kernels do not see the difference.
func TestLeafEqualsFolder(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{16, 128*256 + 1}, {16, 129*256 + 15}, {32, 17 * 1024}, {64, 2*4096 + 4095},
	} {
		a := GlobalRows(41, tc.n, 0, tc.m)
		f := NewFolder(tc.n, 0)
		f.Push(a)
		var res *core.Result
		mpi.NewWorld(grid.SmallTestGrid(1, 1, 1)).Run(func(ctx *mpi.Ctx) {
			res = core.Factorize(mpi.WorldComm(ctx),
				core.Input{M: tc.m, N: tc.n, Offsets: []int{0, tc.m}, Local: a.Clone()}, core.Config{})
		})
		if !bitEqual(res.R, f.SnapshotLocal()) {
			t.Fatalf("%d×%d: Factorize on one rank differs bitwise from Folder.Push + SnapshotLocal", tc.m, tc.n)
		}
	}
}

// TestFolderCloneCost: cloning costs O(n²) plus the buffered rows, not
// the panel — sched clones every rank's folder under its lock every
// round, mid-panel whenever BlockRows/p is not a multiple of the panel.
func TestFolderCloneCost(t *testing.T) {
	const n = 64
	for _, used := range []int{0, 100} {
		f := NewFolder(n, 0)
		f.Push(GlobalRows(5, n, 0, f.PanelRows()+used)) // one full panel folded, used rows buffered
		var before, after runtime.MemStats
		const clones = 16
		runtime.ReadMemStats(&before)
		for i := 0; i < clones; i++ {
			if c := f.Clone(); c.Rows() != f.Rows() {
				t.Fatal("clone lost the row count")
			}
		}
		runtime.ReadMemStats(&after)
		perClone := (after.TotalAlloc - before.TotalAlloc) / clones
		if limit := uint64(2 * 8 * n * (n + used)); perClone > limit {
			t.Fatalf("Clone with %d buffered rows allocates %d bytes, want ≤ %d (panel is %d)",
				used, perClone, limit, 8*n*f.PanelRows())
		}
	}
}

// TestCostFolderAccounting: the cost-only folder fires the same fold
// charges as the data folder for the same ingest pattern.
func TestCostFolderAccounting(t *testing.T) {
	type ev struct {
		rows   int
		merged bool
	}
	record := func(f *Folder, push func(k int)) []ev {
		var evs []ev
		f.OnFold = func(rows int, merged bool) { evs = append(evs, ev{rows, merged}) }
		for _, k := range []int{3, 8, 1, 21, 7} {
			push(k)
		}
		f.SnapshotLocal()
		return evs
	}
	n := 5
	data := NewFolder(n, 0)
	lo := 0
	dataEvs := record(data, func(k int) {
		data.Push(GlobalRows(1, n, lo, lo+k))
		lo += k
	})
	cost := NewCostFolder(n, 0)
	costEvs := record(cost, cost.PushN)
	if len(dataEvs) != len(costEvs) {
		t.Fatalf("fold events: data %d, cost %d", len(dataEvs), len(costEvs))
	}
	for i := range dataEvs {
		if dataEvs[i] != costEvs[i] {
			t.Fatalf("event %d: data %+v, cost %+v", i, dataEvs[i], costEvs[i])
		}
	}
	if cost.SnapshotLocal() != nil {
		t.Fatal("cost-only snapshot returned data")
	}
}

// TestFolderPanics pins the argument validation.
func TestFolderPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("zero cols", func() { NewFolder(0, 4) })
	expectPanic("negative panel", func() { NewFolder(4, -1) })
	expectPanic("cols mismatch", func() { NewFolder(4, 0).Push(matrix.New(2, 3)) })
	expectPanic("PushN on data", func() { NewFolder(4, 0).PushN(2) })
	expectPanic("Push on cost", func() { NewCostFolder(4, 0).Push(matrix.New(2, 4)) })
	expectPanic("negative PushN", func() { NewCostFolder(4, 0).PushN(-1) })
}

// FuzzIncrementalFold drives the bitwise granularity contract with
// fuzzer-chosen block splits: folding any random split of the stream
// must reproduce the one-shot R exactly, through Push and through the
// rounds' in-place shard ingest alike. The shard ingest also runs as
// one rank of a p-rank partition (p and rank from the fuzzed sizes),
// against that rank's one-shot Push(ShardRows).
func FuzzIncrementalFold(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(80), []byte{10, 30, 40})
	f.Add(int64(2), uint8(3), uint8(50), []byte{1, 1, 1, 47})
	f.Add(int64(3), uint8(8), uint8(64), []byte{64})
	f.Add(int64(4), uint8(13), uint8(190), []byte{2, 9, 0, 33})
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint8, cuts []byte) {
		n := int(nRaw%8) + 1
		m := int(mRaw%100) + 1
		p := int(mRaw/100)%3 + 1
		rank := int(nRaw/8) % p
		oneShot := pushSplit(n, 0, seed, []int{m})
		shardRef := NewFolder(n, 0)
		shardRef.Push(ShardRows(seed, n, 0, m, rank, p))
		shardOneShot := shardRef.SnapshotLocal()

		fold, inPlace, shard := NewFolder(n, 0), NewFolder(n, 0), NewFolder(n, 0)
		ingest := func(lo, hi int) {
			fold.Push(GlobalRows(seed, n, lo, hi))
			inPlace.pushShard(seed, lo, hi, 0, 1)
			shard.pushShard(seed, lo, hi, rank, p)
		}
		lo := 0
		for _, c := range cuts {
			if lo >= m {
				break
			}
			k := min(int(c), m-lo)
			ingest(lo, lo+k)
			lo += k
		}
		if lo < m {
			ingest(lo, m)
		}
		if !bitEqual(fold.SnapshotLocal(), oneShot) {
			t.Fatalf("n=%d m=%d cuts=%v: split fold differs from one-shot", n, m, cuts)
		}
		if !bitEqual(inPlace.SnapshotLocal(), oneShot) {
			t.Fatalf("n=%d m=%d cuts=%v: split in-place ingest differs from one-shot", n, m, cuts)
		}
		if !bitEqual(shard.SnapshotLocal(), shardOneShot) {
			t.Fatalf("n=%d m=%d p=%d rank=%d cuts=%v: split shard ingest differs from one-shot", n, m, p, rank, cuts)
		}
	})
}

// TestFolderRandomizedSplits is FuzzIncrementalFold's seed-corpus
// cousin run on every push: a few hundred random splits.
func TestFolderRandomizedSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(8) + 1
		m := rng.Intn(150) + 1
		seed := rng.Int63()
		oneShot := pushSplit(n, 0, seed, []int{m})
		var splits []int
		left := m
		for left > 0 {
			k := rng.Intn(left) + 1
			splits = append(splits, k)
			left -= k
		}
		if got := pushSplit(n, 0, seed, splits); !bitEqual(got, oneShot) {
			t.Fatalf("trial %d (n=%d m=%d splits=%v): differs from one-shot", trial, n, m, splits)
		}
	}
}

// TestOutOfCoreBitwise: the out-of-core path over a row-ordered
// coordinate file is read-granularity-invariant and equals the
// in-memory fold bitwise.
func TestOutOfCoreBitwise(t *testing.T) {
	const n, m, seed = 7, 90, 29
	a := GlobalRows(seed, n, 0, m)
	a.Set(40, 3, 0) // a zero entry exercises the sparse writer
	var buf bytes.Buffer
	if err := mmio.WriteRows(&buf, a); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	inMem := NewFolder(n, 0)
	inMem.Push(a)
	want := inMem.SnapshotLocal()

	for _, readRows := range []int{0, 1, 13, m, 4 * m} {
		got, err := OutOfCore(bytes.NewReader(data), readRows, 0)
		if err != nil {
			t.Fatalf("readRows=%d: %v", readRows, err)
		}
		if !bitEqual(got, want) {
			t.Fatalf("readRows=%d: out-of-core R differs from in-memory fold", readRows)
		}
	}

	ref := core.FactorizeLocal(a, 0)
	lapack.NormalizeRSigns(ref, nil)
	got, err := OutOfCore(bytes.NewReader(data), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lapack.NormalizeRSigns(got, nil)
	if !matrix.Equal(got, ref, 1e-10) {
		t.Fatal("out-of-core R differs from in-memory QR beyond rounding")
	}
}

// TestOutOfCoreErrors: header and shape failures surface as errors.
func TestOutOfCoreErrors(t *testing.T) {
	if _, err := OutOfCore(bytes.NewReader(nil), 0, 0); err == nil {
		t.Fatal("empty input: expected error")
	}
	noCols := "%%MatrixMarket matrix coordinate real general\n5 0 0\n"
	if _, err := OutOfCore(bytes.NewReader([]byte(noCols)), 0, 0); err == nil {
		t.Fatal("zero columns: expected error")
	}
	noRows := "%%MatrixMarket matrix coordinate real general\n0 3 0\n"
	if _, err := OutOfCore(bytes.NewReader([]byte(noRows)), 0, 0); err == nil {
		t.Fatal("zero rows: expected error")
	}
}
