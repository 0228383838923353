package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"gridqr/internal/grid"
	"gridqr/internal/sched"
)

// Open-loop streaming ingest study: a fixed-interval arrival process
// ingests row-blocks into one long-lived stream — never waiting for the
// folds — while snapshot barriers fire every SnapshotEvery blocks from
// their own goroutines. Ingest-side latency (fold, snapshot barrier) is
// read back from the server's SLO histograms.
//
// Determinism contract for the perf gate: folds move no messages (each
// rank rematerializes its strided row shard from the seed), so a
// snapshot round's traffic is exactly the barrier's p-1 messages
// (perfmodel.StreamSnapshotExact) no matter how many folds share the
// round or how ingest interleaves with the barrier on the host. Block
// and snapshot counts come from the fixed schedule; Lost must be zero —
// the stream never silently drops an accepted block. Fold/snapshot
// latency and throughput are host-dependent and never gated.

// Standard ingest-rate ladder (blocks/s) for the committed report.
var StandardStreamRates = []float64{250, 1000, 4000}

// StreamBlocksPerPoint is the blocks ingested per rate point of the
// standard sweep; with StreamSnapshotEvery this fixes the snapshot
// count at 8 per point.
const (
	StreamBlocksPerPoint = 240
	StreamSnapshotEvery  = 30
	// StreamBlockRows is the ingest granularity of the standard sweep.
	StreamBlockRows = 256
)

// StreamRun is one ingest-rate point of the streaming study.
type StreamRun struct {
	RatePerS float64 `json:"rate_per_s"`
	// Blocks and Snapshots come from the fixed schedule — deterministic,
	// gated. Procs pins the serving partition size the stream folded on.
	Blocks    int `json:"blocks"`
	Snapshots int `json:"snapshots"`
	Procs     int `json:"procs"`

	// Lost counts accepted blocks that were never folded and must be
	// zero. The rest of the stream accounting is informational.
	Lost    int `json:"lost"`
	Rounds  int `json:"rounds"`
	Retries int `json:"retries"`

	// Wall-clock ingest performance (host-dependent, never gated).
	ThroughputBPS float64 `json:"throughput_blocks_per_s"`
	FoldP50       float64 `json:"fold_p50_seconds"`
	FoldP99       float64 `json:"fold_p99_seconds"`
	SnapP50       float64 `json:"snapshot_p50_seconds"`
	SnapP99       float64 `json:"snapshot_p99_seconds"`

	// Deterministic per-snapshot traffic (gated): exactly the reduction
	// tree over the partition's running R's.
	MsgsPerSnapshot          int64   `json:"msgs_per_snapshot"`
	InterSiteMsgsPerSnapshot int64   `json:"inter_site_msgs_per_snapshot"`
	BytesPerSnapshot         float64 `json:"bytes_per_snapshot"`
}

// StreamOptions configures the streaming study; the zero value
// reproduces the committed benchmark.
type StreamOptions struct {
	StudyOptions
	// SnapshotEvery fires a snapshot barrier after every this many
	// ingested blocks (default StreamSnapshotEvery).
	SnapshotEvery int
	// BlockRows is the rows per ingested block (default StreamBlockRows).
	BlockRows int
}

// StreamStudy runs the open-loop ingest sweep: for each offered rate, a
// fresh cost-only server hosts one stream; blocks arrive on a fixed
// clock and snapshots fire on schedule without pausing ingest.
// Canceling ctx stops the arrival process; already-accepted blocks are
// drained (bounded by DrainTimeout) and the rows finished so far are
// returned with ctx's error.
func StreamStudy(ctx context.Context, g *grid.Grid, rates []float64, blocks int,
	opts StreamOptions) ([]StreamRun, error) {
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = StreamSnapshotEvery
	}
	if opts.BlockRows <= 0 {
		opts.BlockRows = StreamBlockRows
	}
	plan := servePlan(g)
	return sweep(ctx, opts.StudyOptions, rates,
		func(float64) sched.Config { return sched.Config{Grid: g, Plan: plan} },
		func(rate float64, srv *sched.Server) (StreamRun, error) {
			return streamOnePoint(ctx, srv, len(plan.Groups[0]), rate, blocks, opts)
		})
}

func streamOnePoint(ctx context.Context, srv *sched.Server, procs int, rate float64,
	blocks int, opts StreamOptions) (StreamRun, error) {
	sj, err := srv.SubmitStream(sched.JobSpec{
		N: ServeN, BlockRows: opts.BlockRows, Seed: 7,
	})
	if err != nil {
		return StreamRun{}, fmt.Errorf("bench: open stream: %w", err)
	}
	row := StreamRun{RatePerS: rate, Procs: procs}

	// Open loop: blocks arrive on their own clock; snapshot barriers run
	// from goroutines so a slow barrier never stalls ingest.
	gap := time.Duration(float64(time.Second) / rate)
	var (
		wg      sync.WaitGroup
		snapMu  sync.Mutex
		tally   traffic
		snapErr error
	)
	start := time.Now()
	for b := 0; b < blocks && ctx.Err() == nil; b++ {
		time.Sleep(gap)
		if err := sj.Ingest(1); err != nil {
			return row, fmt.Errorf("bench: ingest block %d: %w", b, err)
		}
		row.Blocks++
		if row.Blocks%opts.SnapshotEvery == 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				snap, err := sj.Snapshot()
				snapMu.Lock()
				defer snapMu.Unlock()
				if err != nil {
					snapErr = err
					return
				}
				tally.add(snap.Counters)
			}()
		}
	}

	// Drain discipline: every scheduled snapshot is waited out and the
	// stream closes only once every accepted block folded, so Lost really
	// measures the server.
	done := make(chan struct{})
	go func() { wg.Wait(); sj.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(opts.drainTimeout()):
		return row, fmt.Errorf("%w (ingest rate %g/s)", ErrDrainTimeout, rate)
	}
	if snapErr != nil {
		return row, fmt.Errorf("bench: snapshot barrier: %w", snapErr)
	}
	elapsed := time.Since(start)

	st := sj.Stats()
	row.Lost = st.Lost
	row.Rounds = st.Rounds
	row.Retries = st.Retries
	row.Snapshots = int(tally.n)
	row.MsgsPerSnapshot, row.InterSiteMsgsPerSnapshot, row.BytesPerSnapshot = tally.per()
	slo := srv.SLO()
	row.ThroughputBPS = float64(st.Folded) / elapsed.Seconds()
	row.FoldP50 = slo.StreamFold.P50
	row.FoldP99 = slo.StreamFold.P99
	row.SnapP50 = slo.StreamSnapshot.P50
	row.SnapP99 = slo.StreamSnapshot.P99
	return row, nil
}

// FormatStream renders the streaming study as the ingest-rate vs
// snapshot-latency table the experiments document quotes.
func FormatStream(g *grid.Grid, rows []StreamRun) string {
	var b strings.Builder
	plan := servePlan(g)
	fmt.Fprintf(&b, "== Open-loop streaming ingest: incremental TSQR (N=%d, %d rows/block, partition of %d ranks) ==\n",
		ServeN, StreamBlockRows, len(plan.Groups[0]))
	fmt.Fprintf(&b, "%8s %7s %6s %5s %9s %11s %11s %11s %11s %10s %10s\n",
		"rate/s", "blocks", "snaps", "lost", "blocks/s",
		"fold p50", "fold p99", "snap p50", "snap p99", "msgs/snap", "inter/snap")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.0f %7d %6d %5d %9.1f %11.2g %11.2g %11.2g %11.2g %10d %10d\n",
			r.RatePerS, r.Blocks, r.Snapshots, r.Lost, r.ThroughputBPS,
			r.FoldP50, r.FoldP99, r.SnapP50, r.SnapP99,
			r.MsgsPerSnapshot, r.InterSiteMsgsPerSnapshot)
	}
	return b.String()
}
