package sched

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/perfmodel"
	"gridqr/internal/stream"
)

// oneShotStream serves the whole stream in a single ingest + snapshot
// on a fresh server over g — the reference an incremental stream must
// match bit for bit (same partition size ⇒ same sharding ⇒ same R).
func oneShotStream(t *testing.T, g *grid.Grid, spec JobSpec, blocks int) *matrix.Dense {
	t.Helper()
	s := Start(Config{Grid: g})
	defer s.Close()
	sj, err := s.SubmitStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sj.Ingest(blocks); err != nil {
		t.Fatal(err)
	}
	snap, err := sj.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap.R
}

// TestStreamIncrementalMatchesOneShot: ingesting block by block with
// snapshots along the way yields, at every point, the R a one-shot
// ingest of the same prefix would — and the final R matches the
// sequential QR of the concatenation after sign normalization.
func TestStreamIncrementalMatchesOneShot(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2) // 8 ranks, 2 partitions of 4
	spec := JobSpec{N: 6, BlockRows: 16, Seed: 11}
	const blocks = 12

	s := Start(Config{Grid: g})
	defer s.Close()
	sj, err := s.SubmitStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	var final *matrix.Dense
	done := 0
	for _, k := range []int{1, 4, 0, 5, 2} { // uneven ingest grouping
		if err := sj.Ingest(k); err != nil {
			t.Fatal(err)
		}
		done += k
		snap, err := sj.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Blocks != done {
			t.Fatalf("snapshot covers %d blocks, want %d", snap.Blocks, done)
		}
		want := oneShotStream(t, g, spec, done)
		if !bitwiseEqual(snap.R, want) {
			t.Fatalf("after %d blocks: incremental R differs from one-shot", done)
		}
		final = snap.R
	}
	if done != blocks {
		t.Fatalf("ingest plan covers %d blocks, want %d", done, blocks)
	}

	ref := core.FactorizeLocal(stream.GlobalRows(spec.Seed, spec.N, 0, blocks*spec.BlockRows), 0)
	lapack.NormalizeRSigns(ref, nil)
	norm := final.Clone()
	lapack.NormalizeRSigns(norm, nil)
	if !matrix.Equal(norm, ref, 1e-10) {
		t.Fatal("streamed R differs from sequential QR of the concatenation")
	}

	stats := sj.Stats()
	if stats.Lost != 0 || stats.Folded != blocks || stats.Snapshots != 5 {
		t.Fatalf("stats = %+v", stats)
	}
	if err := sj.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sj.Ingest(1); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("ingest after close: %v", err)
	}
}

// TestStreamSnapshotExactCounts: each snapshot barrier moves exactly the
// perfmodel's predicted traffic — p-1 messages of one packed triangle —
// and folds move nothing (a drained stream's snapshot-only round's
// counters are purely the barrier's).
func TestStreamSnapshotExactCounts(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2) // partitions of 4
	spec := JobSpec{N: 8, BlockRows: 8, Seed: 3}
	s := Start(Config{Grid: g})
	defer s.Close()
	sj, err := s.SubmitStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sj.Ingest(6); err != nil {
		t.Fatal(err)
	}
	if err := sj.Drain(); err != nil {
		t.Fatal(err)
	}
	want := perfmodel.StreamSnapshotExact(spec.N, 4)
	for i := 0; i < 3; i++ {
		snap, err := sj.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		tot := snap.Counters.Total()
		if float64(tot.Msgs) != want.Msgs || tot.Bytes != want.Volume {
			t.Fatalf("snapshot %d: %d msgs / %.0f B, want %g / %g",
				i, tot.Msgs, tot.Bytes, want.Msgs, want.Volume)
		}
	}
	slo := s.SLO()
	if slo.StreamSnapshots != 3 || slo.StreamBlocks != 6 {
		t.Fatalf("SLO stream counters: %d snapshots / %d blocks", slo.StreamSnapshots, slo.StreamBlocks)
	}
	if slo.StreamFold.Count == 0 || slo.StreamSnapshot.Count != 3 {
		t.Fatalf("SLO stream histograms: fold %d, snapshot %d",
			slo.StreamFold.Count, slo.StreamSnapshot.Count)
	}
}

// TestStreamCostOnly: the cost-only server streams too — R is nil but
// the snapshot traffic is identical to data mode.
func TestStreamCostOnly(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1)
	spec := JobSpec{N: 4, BlockRows: 4, Seed: 9}
	s := Start(Config{Grid: g, CostOnly: true})
	defer s.Close()
	sj, err := s.SubmitStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sj.Ingest(5); err != nil {
		t.Fatal(err)
	}
	snap, err := sj.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.R != nil {
		t.Fatal("cost-only snapshot returned data")
	}
	want := perfmodel.StreamSnapshotExact(spec.N, 2)
	if tot := snap.Counters.Total(); float64(tot.Msgs) != want.Msgs {
		t.Fatalf("cost-only snapshot msgs %d, want %g", tot.Msgs, want.Msgs)
	}
}

// TestStreamFaultZeroLostBlocks: a rank killed mid-stream fails the
// round; the rollback discards the round's clones and the retry — on a
// surviving same-size partition — refolds the round's blocks from the
// seed. Zero blocks lost, and the final R is bitwise identical to a
// fault-free run.
//
// A fold round's only fault program points are the charges of completed
// panels, so the stream is sized to complete them: N = 6 folds through
// 36-row panels (lapack.FoldBlockRows) and a 144-row block strided over
// a 4-rank partition is exactly one panel per rank per block — geqrf for
// a rank's first block, geqrf then stack_qr for every later one. Killing
// rank 1 before its second operation therefore spares it in a round that
// folds block 0 and kills it inside the next round its partition serves,
// which is always after a commit.
//
// Which partition serves a round is a wall-clock race between placement
// (partition 0 on ties) and the other runner's work stealing, and a
// runner that just served tends to win the next one too. One-block
// rounds are fed until one lands on rank 1's partition; should partition
// 1 keep all of them, a fresh server — whose first round partition 0 all
// but always pops — tries again.
func TestStreamFaultZeroLostBlocks(t *testing.T) {
	for attempt := 0; attempt < 8; attempt++ {
		if streamFaultFired(t) {
			return
		}
	}
	t.Fatal("fault plan never fired: rank 1's partition served at most one round in every attempt")
}

// streamFaultFired runs the scenario once and checks the stream's
// contract either way; it reports whether rank 1 died on the way.
func streamFaultFired(t *testing.T) bool {
	g := grid.SmallTestGrid(2, 2, 2) // 2 partitions of 4
	spec := JobSpec{N: 6, BlockRows: 144, Seed: 19}
	fp := mpi.NewFaultPlan(42).Kill(1, 1) // rank 1 (partition 0)
	fp.RecvTimeout = 5 * time.Second
	s := Start(Config{Grid: g, Plan: PerSite(g), Faults: fp})
	defer s.Close()

	sj, err := s.SubmitStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for ; blocks < 8 || (blocks < 32 && !s.World().RankDead(1)); blocks++ {
		if err := sj.Ingest(1); err != nil {
			t.Fatal(err)
		}
		if err := sj.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sj.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stats := sj.Stats()
	if stats.Lost != 0 || stats.Folded != blocks {
		t.Fatalf("stats = %+v, want %d folded", stats, blocks)
	}
	want := oneShotStream(t, g, spec, blocks)
	if !bitwiseEqual(snap.R, want) {
		t.Fatal("R differs from fault-free one-shot")
	}
	fired := s.World().RankDead(1)
	// Retries counts over the stream's life, like Rounds and Snapshots:
	// a per-round count would read zero again after the retry's commit.
	if fired && stats.Retries == 0 {
		t.Error("rank died but no round was retried")
	}
	return fired
}

// TestStreamAcrossReconfigure: an autoscaler-style epoch change mid
// stream preempts the in-flight round at a block boundary (the running
// R is the checkpoint) and the stream resumes bitwise-identically on
// the new epoch's partitions.
func TestStreamAcrossReconfigure(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2) // 8 ranks
	spec := JobSpec{N: 5, BlockRows: 4, Seed: 23}
	s := Start(Config{Grid: g, Plan: PerSite(g)}) // 2 partitions of 4
	defer s.Close()

	sj, err := s.SubmitStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sj.Ingest(50); err != nil {
		t.Fatal(err)
	}
	// New epoch, same partition sizes (the stream's pin): in-flight
	// stream rounds are gated at their next block boundary and the
	// remainder requeues onto the new epoch.
	if err := s.Reconfigure(PerSite(g)); err != nil {
		t.Fatal(err)
	}
	if err := sj.Ingest(14); err != nil {
		t.Fatal(err)
	}
	snap, err := sj.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if stats := sj.Stats(); stats.Lost != 0 || stats.Folded != 64 {
		t.Fatalf("stats across reconfigure = %+v", stats)
	}
	want := oneShotStream(t, g, spec, 64)
	if !bitwiseEqual(snap.R, want) {
		t.Fatal("R across reconfigure differs from one-shot")
	}
	if s.SLO().Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", s.SLO().Epoch)
	}
}

// TestStreamValidation pins the typed admission and API errors.
func TestStreamValidation(t *testing.T) {
	g := grid.SmallTestGrid(1, 2, 2)
	s := Start(Config{Grid: g})
	defer s.Close()

	var se *SpecError
	if _, err := s.SubmitStream(JobSpec{N: 0, BlockRows: 4}); !errors.As(err, &se) {
		t.Fatalf("N=0: %v", err)
	}
	if _, err := s.SubmitStream(JobSpec{N: 4}); !errors.As(err, &se) {
		t.Fatalf("BlockRows=0: %v", err)
	}
	if _, err := s.SubmitStream(JobSpec{N: 4, BlockRows: 4, Preemptible: true}); !errors.As(err, &se) {
		t.Fatalf("preemptible stream: %v", err)
	}
	if _, err := s.Submit(JobSpec{Kind: KindStream, N: 4, BlockRows: 4}); !errors.As(err, &se) {
		t.Fatalf("Submit of stream kind: %v", err)
	}
	if _, err := s.Submit(JobSpec{Kind: KindTSQR, M: 64, N: 4, BlockRows: 8}); !errors.As(err, &se) {
		t.Fatalf("BlockRows on TSQR job: %v", err)
	}

	sj, err := s.SubmitStream(JobSpec{N: 4, BlockRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sj.Ingest(-1); !errors.As(err, &se) {
		t.Fatalf("negative ingest: %v", err)
	}
	if err := sj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sj.Snapshot(); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("snapshot after close: %v", err)
	}
}

// TestStreamConcurrentClients: many goroutines ingesting and
// snapshotting one stream concurrently — the serving loop serializes
// rounds, every snapshot is internally consistent (served R's match a
// one-shot of some committed prefix), and nothing races (run under
// -race in CI).
func TestStreamConcurrentClients(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1) // partitions of 2
	spec := JobSpec{N: 4, BlockRows: 4, Seed: 31}
	s := Start(Config{Grid: g})
	defer s.Close()
	sj, err := s.SubmitStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := sj.Ingest(1); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if _, err := sj.Snapshot(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	snap, err := sj.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Blocks != 40 {
		t.Fatalf("final snapshot covers %d blocks, want 40", snap.Blocks)
	}
	if stats := sj.Stats(); stats.Lost != 0 || stats.Folded != 40 {
		t.Fatalf("stats = %+v", stats)
	}
	want := oneShotStream(t, g, spec, 40)
	if !bitwiseEqual(snap.R, want) {
		t.Fatal("concurrent-client R differs from one-shot")
	}
}
