package sched

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"gridqr/internal/core"
	"gridqr/internal/grid"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// soloTSQR runs one TSQR factorization on a dedicated world over g —
// the reference a scheduled job must match bit for bit.
func soloTSQR(g *grid.Grid, spec JobSpec) (*matrix.Dense, mpi.CounterSnapshot) {
	w := mpi.NewWorld(g)
	var mu sync.Mutex
	var r *matrix.Dense
	w.Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		p, me := ctx.Size(), ctx.Rank()
		offsets := scalapack.BlockOffsets(spec.M, p)
		in := core.Input{
			M: spec.M, N: spec.N, Offsets: offsets,
			Local: matrix.RandomRows(offsets[me+1]-offsets[me], spec.N, offsets[me], spec.Seed),
		}
		res := core.Factorize(comm, in, core.Config{Tree: core.TreeGrid})
		if me == 0 {
			mu.Lock()
			r = res.R
			mu.Unlock()
		}
	})
	return r, w.Counters()
}

// subGrid builds the grid a partition effectively runs on: its member
// ranks regrouped into clusters, preserving link parameters and kernel
// rates, so soloTSQR on it is the dedicated-grid reference for a job the
// partition served. A partial site becomes a cluster with the member
// count as its processor count (node-aligned when the slice divides by
// ProcsPerNode).
func subGrid(g *grid.Grid, members []int) *grid.Grid {
	// Group members by site, preserving order.
	var sites []int  // distinct site indices, in member order
	var counts []int // member count per site
	last := -1
	for _, r := range members {
		c := g.ClusterOf(r)
		if len(sites) == 0 || c != last {
			sites = append(sites, c)
			counts = append(counts, 0)
			last = c
		}
		counts[len(counts)-1]++
	}
	sub := &grid.Grid{
		Clusters:    make([]grid.Cluster, len(sites)),
		Inter:       make([][]grid.Link, len(sites)),
		IntraNode:   g.IntraNode,
		KernelHalfN: g.KernelHalfN,
		KernelEff:   g.KernelEff,
	}
	for i, c := range sites {
		cl := g.Clusters[c]
		n := counts[i]
		if n%cl.ProcsPerNode == 0 {
			cl.Nodes = n / cl.ProcsPerNode
		} else {
			cl.Nodes, cl.ProcsPerNode = n, 1
		}
		sub.Clusters[i] = cl
	}
	for i, ci := range sites {
		sub.Inter[i] = make([]grid.Link, len(sites))
		for j, cj := range sites {
			a, b := ci, cj
			if a > b {
				a, b = b, a
			}
			sub.Inter[i][j] = g.Inter[a][b]
		}
	}
	return sub
}

func bitwiseEqual(a, b *matrix.Dense) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if a.At(i, j) != b.At(i, j) {
				return false
			}
		}
	}
	return true
}

// TestScheduledMatchesSolo is the acceptance-criterion identity: a job
// served on a split sub-communicator produces the same R factor — bit
// for bit — and the same message and inter-site message counts as the
// identical run on a dedicated grid of the partition's shape.
func TestScheduledMatchesSolo(t *testing.T) {
	g := grid.SmallTestGrid(4, 2, 2) // 16 ranks, 4 sites
	plan := SiteGroups(g, 2)         // 2 partitions × 2 sites × 8 ranks
	s := Start(Config{Grid: g, Plan: plan})
	defer s.Close()

	spec := JobSpec{Kind: KindTSQR, M: 128, N: 8, Seed: 7}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := j.Result()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Partition < 0 {
		t.Fatal("job has no partition")
	}

	sub := subGrid(g, plan.Groups[res.Partition])
	wantR, wantC := soloTSQR(sub, spec)
	if !bitwiseEqual(res.R, wantR) {
		t.Error("scheduled R differs from solo run")
	}
	gotT, wantT := res.Counters.Total(), wantC.Total()
	if gotT.Msgs != wantT.Msgs || gotT.Bytes != wantT.Bytes {
		t.Errorf("traffic differs: scheduled %d msgs / %.0f B, solo %d msgs / %.0f B",
			gotT.Msgs, gotT.Bytes, wantT.Msgs, wantT.Bytes)
	}
	if got, want := res.Counters.Inter().Msgs, wantC.Inter().Msgs; got != want {
		t.Errorf("inter-site msgs: scheduled %d, solo %d", got, want)
	}
}

// TestBackToBackJobsShareNoInput: jobs of one shape run back to back on
// one partition. Each R equals its solo run, and neither an earlier
// job's R nor a checkpoint taken before the next job moves when that
// job runs; a server that recycles its input matrices must keep this.
func TestBackToBackJobsShareNoInput(t *testing.T) {
	g := grid.SmallTestGrid(2, 1, 2) // 4 ranks, 2 sites
	plan := SiteGroups(g, 2)         // one partition
	s := Start(Config{Grid: g, Plan: plan})
	defer s.Close()
	var ckpt *core.StageCheckpoint
	s.mu.Lock()
	s.execHook = func(ex *jobExec) {
		switch {
		case ex.resume != nil:
			ckpt = ex.resume
		case ex.gate != nil:
			ex.gate.RequestAt(1) // checkpoint the fresh run after its leaves
		}
	}
	s.mu.Unlock()

	sub := subGrid(g, plan.Groups[0])
	run := func(seed int64, preemptible bool) *matrix.Dense {
		t.Helper()
		spec := JobSpec{Kind: KindTSQR, M: 256, N: 8, Seed: seed, Preemptible: preemptible}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res := j.Result()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if want, _ := soloTSQR(sub, spec); !bitwiseEqual(res.R, want) {
			t.Fatalf("seed %d: served R differs from its solo run", seed)
		}
		// Only a preemptible job carries a gate for the hook to pull.
		want := 0
		if preemptible {
			want = 1
		}
		if res.Preemptions != want {
			t.Fatalf("seed %d: %d preemptions, want %d", seed, res.Preemptions, want)
		}
		return res.R
	}

	first := run(1, false)
	firstCopy := first.Clone()
	run(2, true) // preempted once, resumed from the checkpoint
	s.mu.Lock()
	c := ckpt
	s.mu.Unlock()
	if c == nil || len(c.R) == 0 {
		t.Fatal("the preemptible job left no checkpoint")
	}
	saved := map[int][]float64{}
	for dom, r := range c.R {
		saved[dom] = append([]float64(nil), r...)
	}
	run(3, false)
	if !bitwiseEqual(first, firstCopy) {
		t.Error("the first job's R moved when later jobs ran")
	}
	for dom, r := range saved {
		for i := range r {
			if math.Float64bits(c.R[dom][i]) != math.Float64bits(r[i]) {
				t.Fatalf("checkpoint triangle of domain %d moved when a later job ran", dom)
			}
		}
	}
}

// TestConcurrentMatchesSerial is the property test: K jobs submitted
// concurrently to a space-shared server complete with bitwise-identical
// R factors and identical per-job traffic counts to the same jobs run
// one at a time. All partitions have the same shape, so placement
// cannot leak into the results.
func TestConcurrentMatchesSerial(t *testing.T) {
	g := grid.SmallTestGrid(4, 1, 2) // 8 ranks, 4 sites of 2
	specs := []JobSpec{
		{Kind: KindTSQR, M: 64, N: 4, Seed: 1},
		{Kind: KindTSQR, M: 96, N: 8, Seed: 2},
		{Kind: KindTSQR, M: 64, N: 6, Seed: 3},
		{Kind: KindTSQR, M: 128, N: 8, Seed: 4},
		{Kind: KindTSQR, M: 64, N: 4, Seed: 5},
		{Kind: KindTSQR, M: 96, N: 6, Seed: 6},
		{Kind: KindTSQR, M: 64, N: 8, Seed: 7},
		{Kind: KindTSQR, M: 128, N: 4, Seed: 8},
	}

	run := func(serial bool) ([]*matrix.Dense, []mpi.CounterSnapshot) {
		s := Start(Config{Grid: g}) // PerSite: 4 partitions
		defer s.Close()
		rs := make([]*matrix.Dense, len(specs))
		cs := make([]mpi.CounterSnapshot, len(specs))
		if serial {
			for i, spec := range specs {
				j, err := s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				res := j.Result()
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				rs[i], cs[i] = res.R, res.Counters
			}
			return rs, cs
		}
		jobs := make([]*Job, len(specs))
		for i, spec := range specs {
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = j
		}
		for i, j := range jobs {
			res := j.Result()
			if res.Err != nil {
				t.Fatalf("job %d: %v", i, res.Err)
			}
			rs[i], cs[i] = res.R, res.Counters
		}
		return rs, cs
	}

	serialR, serialC := run(true)
	concR, concC := run(false)
	for i := range specs {
		if !bitwiseEqual(serialR[i], concR[i]) {
			t.Errorf("job %d: concurrent R differs from serial", i)
		}
		st, ct := serialC[i].Total(), concC[i].Total()
		if st.Msgs != ct.Msgs || st.Bytes != ct.Bytes {
			t.Errorf("job %d: traffic serial %d/%.0f vs concurrent %d/%.0f",
				i, st.Msgs, st.Bytes, ct.Msgs, ct.Bytes)
		}
		if serialC[i].Inter().Msgs != concC[i].Inter().Msgs {
			t.Errorf("job %d: inter-site msgs differ", i)
		}
	}
}

// TestServeWithFaults arms the fault plan, kills a rank mid-service and
// checks the serving loop survives: the hit job retries on a healthy
// partition, later jobs avoid the degraded one, and nothing hangs. Run
// under -race in CI, this is also the fault-injection race test.
func TestServeWithFaults(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2) // 8 ranks, 2 sites
	plan := PerSite(g)               // 2 partitions of 4
	fp := mpi.NewFaultPlan(42).Kill(1, 60)
	fp.RecvTimeout = 5 * time.Second // liveness net, not part of the scenario
	s := Start(Config{Grid: g, Plan: plan, Faults: fp})
	defer s.Close()

	spec := JobSpec{Kind: KindTSQR, M: 128, N: 8}
	jobs := make([]*Job, 6)
	for i := range jobs {
		sp := spec
		sp.Seed = int64(i + 1)
		j, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	retried := 0
	for i, j := range jobs {
		res := j.Result()
		if res.Err != nil {
			t.Fatalf("job %d failed despite a healthy partition: %v", i, res.Err)
		}
		if res.Retries > 0 {
			retried++
		}
		// Every job's factor must still be correct.
		want, _ := soloTSQR(subGrid(g, plan.Groups[res.Partition]), j.spec)
		if !bitwiseEqual(res.R, want) {
			t.Errorf("job %d: R differs from solo after faulty serving", i)
		}
	}
	if s.world.RankDead(1) && retried == 0 && s.SLO().Failed == 0 {
		t.Error("rank 1 died but no job was retried or failed")
	}
}

// TestCostOnlyCounts runs the server in cost-only mode and pins the
// deterministic per-job counts: a TSQR over an 8-rank 2-site partition
// is exactly 7 tree merges, 1 of them inter-site.
func TestCostOnlyCounts(t *testing.T) {
	g := grid.SmallTestGrid(4, 2, 2)
	plan := SiteGroups(g, 2)
	s := Start(Config{Grid: g, Plan: plan, CostOnly: true})
	defer s.Close()

	j, err := s.Submit(JobSpec{Kind: KindTSQR, M: 256, N: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := j.Result()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.R != nil {
		t.Error("cost-only job returned data")
	}
	if got := res.Counters.Total().Msgs; got != 7 {
		t.Errorf("TSQR on 8 ranks counted %d msgs, want 7", got)
	}
	if got := res.Counters.Inter().Msgs; got != 1 {
		t.Errorf("TSQR across 2 sites counted %d inter-site msgs, want 1", got)
	}
	if res.Service <= 0 {
		t.Error("virtual service time not positive")
	}
}

// TestAdmissionControl exercises the typed rejection paths: infeasible
// specs, backpressure, and post-Close submission.
func TestAdmissionControl(t *testing.T) {
	g := grid.SmallTestGrid(2, 1, 2) // 4 ranks
	plan := SiteGroups(g, 2)         // one partition of 4
	s := Start(Config{Grid: g, Plan: plan, QueueCap: 2})

	var specErr *SpecError
	if _, err := s.Submit(JobSpec{Kind: KindTSQR, M: 8, N: 16}); !errors.As(err, &specErr) {
		t.Errorf("wide matrix admitted: %v", err)
	}
	if _, err := s.Submit(JobSpec{Kind: KindTSQR, M: 8, N: 4}); !errors.As(err, &specErr) {
		t.Errorf("too-short matrix admitted: %v", err)
	}
	if _, err := s.Submit(JobSpec{Kind: 42, M: 64, N: 4}); !errors.As(err, &specErr) {
		t.Errorf("unknown kind admitted: %v", err)
	}

	// Fill the pipe: one running blocker plus QueueCap queued jobs, then
	// the next submission must see backpressure.
	blocker, err := s.Submit(JobSpec{Kind: KindTSQR, M: 4096, N: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queued := make([]*Job, 0, 8)
	sawFull := false
	for i := 0; i < 8; i++ {
		j, err := s.Submit(JobSpec{Kind: KindTSQR, M: 64, N: 4, Seed: int64(i)})
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	if !sawFull {
		t.Error("queue never reported full at capacity 2")
	}

	if blocker.Result().Err != nil {
		t.Fatal(blocker.Result().Err)
	}

	s.Close()
	if _, err := s.Submit(JobSpec{Kind: KindTSQR, M: 64, N: 4}); !errors.Is(err, ErrServerClosed) {
		t.Errorf("post-close submission returned %v", err)
	}
}

// startPlan starts (and closes) a server on plan, returning what Start
// panicked with — nil when it accepted the plan.
func startPlan(g *grid.Grid, plan Plan) (err any) {
	defer func() { err = recover() }()
	Start(Config{Grid: g, Plan: plan}).Close()
	return nil
}

// TestPlanValidation pins the partition plan's error cases.
func TestPlanValidation(t *testing.T) {
	g := grid.SmallTestGrid(2, 1, 2) // 4 ranks
	bad := []Plan{
		{Groups: [][]int{{}}},
		{Groups: [][]int{{0, 2}}},      // not consecutive
		{Groups: [][]int{{0, 1}, {1}}}, // overlap
		{Groups: [][]int{{3, 4}}},      // out of range
	}
	if err := (Plan{}).validate(g); err == nil {
		t.Error("empty plan validated") // Start reads it as PerSite
	}
	for i, p := range bad {
		if startPlan(g, p) == nil {
			t.Errorf("bad plan %d started", i+1)
		}
	}
	if err := startPlan(g, Plan{Groups: [][]int{{0, 1}, {2}}}); err != nil {
		t.Errorf("partial-coverage plan rejected: %v", err)
	}
}
