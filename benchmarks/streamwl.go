package main

import (
	"runtime"
	"sync"
	"time"

	"gridqr/internal/flops"
	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/perfmodel"
	"gridqr/internal/sched"
	"gridqr/internal/stream"
)

// stream_ingest: one producer in a closed loop on sched.SubmitStream,
// data mode, one partition of 2 ranks. One op is Ingest(blocks) then
// Drain(); a Snapshot() follows each op and is timed on its own.

type streamShape struct {
	n, blockRows, blocksPerOp int
}

var shapeStream = streamShape{n: 64, blockRows: 4096, blocksPerOp: 4}

func (s streamShape) smoke() streamShape {
	s.n, s.blockRows = 16, 256
	return s
}

type streamRun struct {
	rc      *runCtx
	shape   streamShape
	srv     *sched.Server
	sj      *sched.StreamJob
	blocks  int // blocks ingested so far, warm-up included
	ops     int
	snapMs  []float64
	lastR   *matrix.Dense
	snapMsg int64
}

func (st *streamRun) start() {
	g := grid.SmallTestGrid(1, 2, 1)
	st.srv = sched.Start(sched.Config{Grid: g, MaxBatch: 1})
	sj, err := st.srv.SubmitStream(sched.JobSpec{N: st.shape.n, BlockRows: st.shape.blockRows, Seed: st.rc.cfg.Seed})
	if err != nil {
		panic("benchmarks: SubmitStream: " + err.Error())
	}
	st.sj = sj
	st.blocks, st.ops = 0, 0
}

func (st *streamRun) stop() {
	if err := st.sj.Close(); err != nil {
		st.rc.check(false, "stream close: %v", err)
	}
	st.srv.Close()
}

// op ingests one group of blocks and waits until they are folded, then
// takes a snapshot. It returns the op's seconds; ok is false when any
// call failed.
func (st *streamRun) op(tr *tracer) (sec float64, ok bool) {
	id := st.ops
	st.ops++
	t0 := time.Now()
	root := tr.begin("stream.op", noSpan, id, 0)
	s := tr.begin("sched.StreamJob.Ingest", root, id, 0)
	err := st.sj.Ingest(st.shape.blocksPerOp)
	tr.end(s)
	if err == nil {
		s = tr.begin("sched.StreamJob.Drain", root, id, 0)
		err = st.sj.Drain()
		tr.end(s)
	}
	tr.end(root)
	sec = time.Since(t0).Seconds()
	if err != nil {
		st.rc.fail("op %d: %v", id, err)
		return sec, false
	}
	st.blocks += st.shape.blocksPerOp

	var snap *sched.StreamSnapshot
	snapS := tr.timed("sched.StreamJob.Snapshot", noSpan, id, 0, func() { snap, err = st.sj.Snapshot() })
	switch {
	case err != nil:
		st.rc.fail("op %d snapshot: %v", id, err)
		return sec, false
	case snap.Blocks != st.blocks || snap.R == nil:
		st.rc.fail("op %d snapshot covers %d blocks, ingested %d", id, snap.Blocks, st.blocks)
		return sec, false
	}
	st.snapMs = append(st.snapMs, snapS*1e3)
	st.lastR, st.snapMsg = snap.R, snap.Counters.Total().Msgs
	return sec, true
}

// reference computes the R of the first rows rows of the seeded stream
// with plain lapack calls, independent of stream.Folder: each worker
// factors chunks of its slice of the rows and stacks their triangles;
// the workers' triangles are then stacked in turn.
func (st *streamRun) reference(rows int) *matrix.Dense {
	const chunk = 1 << 16
	n := st.shape.n
	workers := runtime.NumCPU()
	parts := make([]*matrix.Dense, workers)
	per := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tau := make([]float64, n)
			for lo := w * per; lo < min((w+1)*per, rows); lo += chunk {
				hi := min(lo+chunk, (w+1)*per, rows)
				a := matrix.RandomRows(hi-lo, n, lo, st.rc.cfg.Seed)
				r := matrix.New(n, n)
				lapack.Dgeqrf(a, tau, 0)
				k := min(hi-lo, n)
				matrix.Copy(r.View(0, 0, k, n), lapack.TriuCopy(a).View(0, 0, k, n))
				if parts[w] == nil {
					parts[w] = r
				} else {
					parts[w], _, _ = lapack.StackQR(parts[w], r)
				}
			}
		}(w)
	}
	wg.Wait()
	var ref *matrix.Dense
	for _, p := range parts {
		switch {
		case p == nil:
		case ref == nil:
			ref = p
		default:
			ref, _, _ = lapack.StackQR(ref, p)
		}
	}
	return ref
}

func runStreamIngest(rc *runCtx) {
	shape := shapeStream
	if rc.cfg.Smoke {
		shape = shape.smoke()
	}
	st := &streamRun{rc: rc, shape: shape}
	rc.repeatSetup(func() {
		if st.srv != nil {
			st.stop()
		}
	}, func() {
		st.start()
		st.op(nil) // warm-up round and snapshot
	})

	rowsPerOp := shape.blocksPerOp * shape.blockRows
	// The flops of folding one op's rows into an R that already exists.
	flopsPerOp := perfmodel.UsefulFlops(2*rowsPerOp, shape.n, false) - perfmodel.UsefulFlops(rowsPerOp, shape.n, false)
	tr := rc.phases(func(tr *tracer, d time.Duration) windowStats {
		return rc.sequentialWindow(d, flopsPerOp, func() (float64, bool) {
			runtime.GC() // as in the factor workloads: collect between ops, outside the timed region
			return st.op(tr)
		})
	})

	// The replayed pieces that are held against the round take turns with
	// rounds on the live stream, so they come before it is closed.
	var replay [][]float64
	pr := rc.prober(tr)
	const p = 2 // ranks of the stream's partition
	if tr != nil {
		folders := [p]*stream.Folder{stream.NewFolder(shape.n, 0), stream.NewFolder(shape.n, 0)}
		// both runs fn on the two ranks at once, as the round does.
		both := func(fn func(rank int)) func() {
			return func() {
				var wg sync.WaitGroup
				for r := 0; r < p; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						fn(r)
					}(r)
				}
				wg.Wait()
			}
		}
		replay = pr.rounds(5, 1.5,
			step{"stream.op.replay", runtime.GC, func() {
				rc.attempt(1)
				st.op(nil)
			}},
			step{"stream.ShardRows.round", runtime.GC, both(func(r int) {
				for b := 0; b < shape.blocksPerOp; b++ {
					stream.ShardRows(rc.cfg.Seed, shape.n, b*shape.blockRows, (b+1)*shape.blockRows, r, p)
				}
			})},
			// Block by block as stream.RunRound does it: materialize, fold.
			step{"stream.ShardRows+Push.round", runtime.GC, both(func(r int) {
				for b := 0; b < shape.blocksPerOp; b++ {
					folders[r].Push(stream.ShardRows(rc.cfg.Seed, shape.n, b*shape.blockRows, (b+1)*shape.blockRows, r, p))
				}
			})})
	}

	stats := st.sj.Stats()
	st.stop()
	if stats.Lost != 0 || stats.Folded != st.blocks {
		rc.fail("stream lost blocks: ingested %d, folded %d, lost %d", stats.Ingested, stats.Folded, stats.Lost)
	}
	wantMsgs := int64(perfmodel.StreamSnapshotExact(shape.n, 2).Msgs)
	rc.check(st.snapMsg == wantMsgs, "snapshot moved %d messages, closed form %d", st.snapMsg, wantMsgs)
	if st.lastR == nil {
		rc.fail("no snapshot completed")
		return
	}
	if ok, rel := rMatchesReference(st.lastR, st.reference(st.blocks*shape.blockRows)); !ok {
		rc.fail("final snapshot off the one-shot reference: relative error %.3g > %g", rel, rTol)
	}
	if tr == nil {
		return
	}

	rc.setTiming("stream.snapshot_ms_p50", st.snapMs, 0.5)
	rc.set("stream.snapshot_msgs", float64(st.snapMsg))
	rc.set("stream.rounds", float64(stats.Rounds))
	rc.set("stream.lost_blocks", float64(stats.Lost))

	// The fold against the kernels it is built from, on the ingest block
	// and on the Folder's panel, timed in turn.
	block := matrix.RandomRows(shape.blockRows, shape.n, 0, rc.cfg.Seed)
	panel := block.View(0, 0, stream.DefaultPanelRows(shape.n), shape.n).Clone()
	folder := stream.NewFolder(shape.n, 0)
	t := pr.rounds(10, 1,
		step{"stream.Folder.Push", nil, func() { folder.Push(block) }},
		dgeqrfStep("lapack.Dgeqrf.block4096", block, matrix.New(block.Rows, block.Cols)),
		dgeqrfStep("lapack.Dgeqrf.panel128", panel, matrix.New(panel.Rows, panel.Cols)))
	foldRows := float64(shape.blockRows) / median(t[0])
	block4096 := flops.GEQRF(block.Rows, block.Cols) / median(t[1]) / 1e9
	rc.set("stream.folder_rows_per_s", foldRows)
	rc.set("lapack.dgeqrf_gflops.block4096", block4096)
	rc.set("lapack.dgeqrf_gflops.panel128", flops.GEQRF(panel.Rows, panel.Cols)/median(t[2])/1e9)
	rc.set("stream.fold_over_leaf_ratio", foldRows*2*float64(shape.n*shape.n)/1e9/block4096)
	stackUs, _ := pr.stackQR(shape.n)
	rc.set("lapack.stackqr_us.n64", stackUs)

	// One round without the scheduler: both ranks materialize and fold
	// their share of an op's blocks at once.
	roundS, shardS, workS := median(replay[0]), median(replay[1]), median(replay[2])
	rc.set("stream.shardrows_ns_per_elem", shardS*1e9/float64(rowsPerOp/p*shape.n))
	rc.set("stream.round_overhead_ms", (roundS-workS)*1e3)
	rc.note("round %.4g ms = ShardRows %.4g + Folder.Push %.4g + overhead %.4g ms",
		roundS*1e3, shardS*1e3, (workS-shardS)*1e3, (roundS-workS)*1e3)
	rc.finishTrace(tr)
}
