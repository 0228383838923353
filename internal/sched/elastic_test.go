package sched

import (
	"errors"
	"testing"
	"time"

	"gridqr/internal/grid"
	"gridqr/internal/mpi"
	"gridqr/internal/telemetry"
)

// TestPreemptResumeBitwise is the serving-level acceptance criterion: a
// preemptible job interrupted at a tree-stage boundary resumes on a
// different partition and still produces the bit-identical R of an
// uninterrupted served run, with the exact same per-job message count.
// The exec hook latches the cut before any rank starts, so the test is
// deterministic on any scheduler.
func TestPreemptResumeBitwise(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2) // 2 sites of 4 ranks
	plan := PerSite(g)               // 2 same-size partitions
	s := Start(Config{Grid: g, Plan: plan})
	defer s.Close()

	spec := JobSpec{Kind: KindTSQR, M: 1 << 12, N: 16, Seed: 21}
	ref, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refRes := ref.Result()
	if refRes.Err != nil {
		t.Fatal(refRes.Err)
	}
	refMsgs := refRes.Counters.Total().Msgs

	// Cut every fresh preemptible execution at stage 1, and the first
	// resume one stage later — checkpoint, hop, checkpoint, hop.
	var dispatches []int // partition per dispatch
	resumeCuts := 0
	s.mu.Lock()
	s.execHook = func(ex *jobExec) {
		if ex.gate == nil {
			return
		}
		dispatches = append(dispatches, ex.part.index)
		if ex.resume == nil {
			ex.gate.RequestAt(1)
		} else if resumeCuts == 0 {
			resumeCuts++
			ex.gate.RequestAt(ex.resume.Stage + 1)
		}
	}
	s.mu.Unlock()

	sp := spec
	sp.Preemptible = true
	j, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	res := j.Result()
	s.mu.Lock()
	s.execHook = nil
	s.mu.Unlock()

	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Preemptions != 2 {
		t.Fatalf("preemptions = %d, want 2 (dispatches: %v)", res.Preemptions, dispatches)
	}
	if len(dispatches) != 3 {
		t.Fatalf("dispatches = %v, want 3", dispatches)
	}
	for i := 1; i < len(dispatches); i++ {
		if dispatches[i] == dispatches[i-1] {
			t.Errorf("resume %d stayed on partition %d", i, dispatches[i])
		}
	}
	if !bitwiseEqual(res.R, refRes.R) {
		t.Fatal("doubly preempted job's R differs bitwise from uninterrupted run")
	}
	if got := res.Counters.Total().Msgs; got != refMsgs {
		t.Fatalf("job msgs across preemptions %d != uninterrupted %d", got, refMsgs)
	}
	if got := s.Stats().Preempted; got != 2 {
		t.Errorf("preempted counter = %d, want 2", got)
	}
}

// TestPreemptedResumeWithoutPartition: a preempted job whose resume finds
// no live partition, with no re-form coming, completes typed with
// ErrNoPartition and keeps its preemption count.
func TestPreemptedResumeWithoutPartition(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	s := Start(Config{Grid: g, Plan: PerSite(g)})
	defer s.Close()

	// Cut the execution at stage 1 and hide every partition from
	// placement, so the checkpoint has nowhere to go.
	s.mu.Lock()
	s.execHook = func(ex *jobExec) {
		ex.gate.RequestAt(1)
		for _, p := range s.parts {
			p.healthy.Store(false)
		}
	}
	s.mu.Unlock()

	j, err := s.Submit(JobSpec{Kind: KindTSQR, M: 1 << 12, N: 16, Seed: 5, Preemptible: true})
	if err != nil {
		t.Fatal(err)
	}
	res := j.Result()
	if !errors.Is(res.Err, ErrNoPartition) {
		t.Fatalf("stranded resume finished with %v, want ErrNoPartition", res.Err)
	}
	if res.Preemptions != 1 || res.Partition != -1 || res.R != nil {
		t.Fatalf("stranded resume result = %+v", res)
	}
	if st := s.Stats(); st.Preempted != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want 1 preempted, 1 failed", st)
	}
}

// TestWorkStealing funnels a burst onto one partition's queue and checks
// the idle partition drains it by stealing.
func TestWorkStealing(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	s := Start(Config{Grid: g, Plan: PerSite(g), CostOnly: true})
	defer s.Close()

	// Hide partition 1 from placement so every submit queues on
	// partition 0; its runner still steals.
	s.mu.Lock()
	s.parts[1].healthy.Store(false)
	s.mu.Unlock()

	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(JobSpec{Kind: KindTSQR, M: 1 << 12, N: 16, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.mu.Lock()
	s.parts[1].healthy.Store(true)
	s.workGen++
	s.workCond.Broadcast()
	s.mu.Unlock()

	onStolen := 0
	for i, j := range jobs {
		res := j.Result()
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if res.Partition == 1 {
			onStolen++
		}
	}
	if s.Stats().Steals == 0 {
		t.Error("idle partition never stole from the loaded queue")
	}
	if onStolen == 0 {
		t.Error("no job ran on the stealing partition")
	}
}

// TestReconfigureElastic grows the partition set mid-stream: queued and
// running jobs survive the epoch change, and post-change jobs run on the
// new, larger partition with its exact deterministic traffic.
func TestReconfigureElastic(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	s := Start(Config{Grid: g, Plan: PerSite(g), CostOnly: true})
	defer s.Close()

	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(JobSpec{Kind: KindTSQR, M: 1 << 12, N: 16, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Scale up: both sites fuse into one 8-rank partition.
	if err := s.Reconfigure(SiteGroups(g, 2)); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 || s.Partitions() != 1 {
		t.Fatalf("epoch=%d partitions=%d after scale-up", s.Epoch(), s.Partitions())
	}
	for i, j := range jobs {
		if res := j.Result(); res.Err != nil {
			t.Fatalf("job %d lost across reconfigure: %v", i, res.Err)
		}
	}
	// A post-change job sees the fused partition: 8 ranks over 2 sites is
	// exactly 7 merges, 1 of them inter-site.
	j, err := s.Submit(JobSpec{Kind: KindTSQR, M: 256, N: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res := j.Result()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := res.Counters.Total().Msgs; got != 7 {
		t.Errorf("post-reconfigure TSQR counted %d msgs, want 7", got)
	}
	if got := res.Counters.Inter().Msgs; got != 1 {
		t.Errorf("post-reconfigure TSQR counted %d inter-site msgs, want 1", got)
	}

	// Scale back down to a sparse plan with a hole where a rank would be.
	sparse := Plan{Groups: [][]int{{0, 1, 2, 3}, {5, 6, 7}}}
	if err := s.Reconfigure(sparse); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 2 || s.Partitions() != 2 {
		t.Fatalf("epoch=%d partitions=%d after sparse plan", s.Epoch(), s.Partitions())
	}
	j2, err := s.Submit(JobSpec{Kind: KindTSQR, M: 1 << 12, N: 16, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res := j2.Result(); res.Err != nil {
		t.Fatal(res.Err)
	}

	// Invalid plans are rejected without disturbing the epoch.
	if err := s.Reconfigure(Plan{Groups: [][]int{{0, 1}, {1, 2}}}); err == nil {
		t.Error("overlapping plan accepted")
	}
	if s.Epoch() != 2 {
		t.Error("failed reconfigure changed the epoch")
	}
}

// TestSurvivorReform kills a rank, then re-forms the partitions over the
// survivors: the new epoch excludes the dead rank (a plan including it
// is rejected) and serving continues on the re-formed partitions.
func TestSurvivorReform(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	fp := mpi.NewFaultPlan(7).Kill(1, 40)
	fp.RecvTimeout = 5 * time.Second
	s := Start(Config{Grid: g, Plan: PerSite(g), Faults: fp, MaxRetries: 3})
	defer s.Close()

	// Serve until the kill has landed.
	for i := 0; !s.world.RankDead(1) && i < 200; i++ {
		j, err := s.Submit(JobSpec{Kind: KindTSQR, M: 128, N: 8, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		j.Result()
	}
	if !s.world.RankDead(1) {
		t.Skip("fault plan never fired")
	}

	// A plan touching the dead rank must be refused.
	if err := s.Reconfigure(PerSite(g)); err == nil {
		t.Fatal("plan including dead rank 1 accepted")
	}
	// Re-form over the survivors: site 0 keeps {0,2,3}, site 1 is whole.
	survivors := Plan{Groups: [][]int{{0, 2, 3}, {4, 5, 6, 7}}}
	if err := s.Reconfigure(survivors); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 || s.Partitions() != 2 {
		t.Fatalf("epoch=%d partitions=%d after survivor re-form", s.Epoch(), s.Partitions())
	}
	for i := 0; i < 4; i++ {
		j, err := s.Submit(JobSpec{Kind: KindTSQR, M: 120, N: 8, Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if res := j.Result(); res.Err != nil {
			t.Fatalf("job %d on re-formed partitions: %v", i, res.Err)
		}
	}
}

// TestDeadlineRiskRejection pins the dispatch-time predictive deadline
// check: on a latency-dominated platform the performance model predicts
// hundreds of milliseconds, so a 50 ms deadline is rejected typed at
// dispatch — before any simulated communication — while a lax deadline
// runs to completion.
func TestDeadlineRiskRejection(t *testing.T) {
	g := highLatencyGrid(2, 1, 2) // 200 ms wide-area RTT
	reg := telemetry.NewRegistry()
	s := Start(Config{Grid: g, Plan: SiteGroups(g, 2), CostOnly: true, Registry: reg})
	defer s.Close()

	doomed, err := s.Submit(JobSpec{Kind: KindTSQR, M: 4096, N: 16, Seed: 1,
		Deadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res := doomed.Result()
	if !errors.Is(res.Err, ErrDeadlineExceeded) {
		t.Fatalf("predicted-late job got %v, want ErrDeadlineExceeded", res.Err)
	}
	if res.Partition != -1 {
		t.Errorf("rejected job reports partition %d", res.Partition)
	}

	relaxed, err := s.Submit(JobSpec{Kind: KindTSQR, M: 4096, N: 16, Seed: 2,
		Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res := relaxed.Result(); res.Err != nil {
		t.Fatalf("feasible-deadline job failed: %v", res.Err)
	}

	if got := s.Stats().Expired; got != 1 {
		t.Errorf("expired = %d, want 1", got)
	}
	if v := reg.CounterL("sched.rejections", telemetry.Labels{"reason": "deadline"}).Value(); v != 1 {
		t.Errorf("deadline rejections = %v, want 1", v)
	}
}

// TestValidateSparse pins the elastic plan validator: ascending with
// holes is legal, everything else still is not.
func TestValidateSparse(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"holes", Plan{Groups: [][]int{{0, 2, 3}, {5, 7}}}, true},
		{"dense", Plan{Groups: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}}, true},
		{"empty group", Plan{Groups: [][]int{{}}}, false},
		{"descending", Plan{Groups: [][]int{{3, 1}}}, false},
		{"duplicate", Plan{Groups: [][]int{{1, 1}}}, false},
		{"overlap", Plan{Groups: [][]int{{0, 1}, {1, 2}}}, false},
		{"out of range", Plan{Groups: [][]int{{0, 8}}}, false},
		{"no partitions", Plan{}, false},
	}
	for _, tc := range cases {
		err := tc.plan.validateSparse(g)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid plan accepted", tc.name)
		}
	}
}
