package elastic

import (
	"testing"
	"time"

	"gridqr/internal/grid"
	"gridqr/internal/perfmodel"
	"gridqr/internal/sched"
)

// ladder2 builds the two-level test ladder over a 2-site grid: level 0
// serves from site 0 only, level 1 adds site 1 as a second same-size
// partition.
func ladder2(g *grid.Grid) []sched.Plan {
	per := sched.PerSite(g)
	return []sched.Plan{
		{Groups: per.Groups[:1]},
		per,
	}
}

// TestAutoscalerScalesUpAndDown drives the model-based policy through a
// burst: the backlog's predicted drain time exceeds the target, the
// autoscaler grows to level 1, and once the queue empties it shrinks
// back.
func TestAutoscalerScalesUpAndDown(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	ladder := ladder2(g)
	s := sched.Start(sched.Config{Grid: g, Plan: ladder[0], CostOnly: true})
	defer s.Close()

	const m, n = 1 << 12, 16
	pred := perfmodel.Predictor{G: g, Sites: 1} // one 4-rank site partition
	solo := pred.TSQRTime(m, n, false)
	target := time.Duration(3 * solo * float64(time.Second))
	as, err := New(s, Config{
		Ladder: ladder,
		Pred:   pred,
		Policy: Policy{M: m, N: n, Target: target},
	})
	if err != nil {
		t.Fatal(err)
	}

	var jobs []*sched.Job
	for i := 0; i < 32; i++ {
		j, err := s.Submit(sched.JobSpec{Kind: sched.KindTSQR, M: m, N: n, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	changed, err := as.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !changed || as.Level() != 1 {
		t.Fatalf("backlog of 32 did not scale up (level=%d)", as.Level())
	}
	if s.SLO().Partitions != 2 || s.SLO().Epoch != 1 {
		t.Fatalf("server at partitions=%d epoch=%d after scale-up", s.SLO().Partitions, s.SLO().Epoch)
	}
	for i, j := range jobs {
		if res := j.Result(); res.Err != nil {
			t.Fatalf("job %d lost across scale-up: %v", i, res.Err)
		}
	}
	// Drained: the next step shrinks back to level 0.
	changed, err = as.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !changed || as.Level() != 0 || s.SLO().Partitions != 1 {
		t.Fatalf("idle server did not scale down (level=%d partitions=%d)", as.Level(), s.SLO().Partitions)
	}
	ups, downs := as.Stats()
	if ups != 1 || downs != 1 {
		t.Errorf("ups=%d downs=%d, want 1/1", ups, downs)
	}

	// A job served after the round trip still carries the exact
	// single-site traffic: 3 merges on 4 ranks, none inter-site.
	j, err := s.Submit(sched.JobSpec{Kind: sched.KindTSQR, M: m, N: n, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	res := j.Result()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if msgs := res.Counters.Total().Msgs; msgs != 3 {
		t.Errorf("post-scaling job msgs = %d, want 3", msgs)
	}
}

// TestAutoscalerCooldown pins the damping: after one scaling action,
// Cooldown steps are no-ops even under pressure.
func TestAutoscalerCooldown(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 2)
	ladder := ladder2(g)
	s := sched.Start(sched.Config{Grid: g, Plan: ladder[0], CostOnly: true})
	defer s.Close()
	as, err := New(s, Config{
		Ladder: ladder,
		Pred:   perfmodel.Predictor{G: g, Sites: 1},
		Policy: Policy{M: 1 << 12, N: 16, Target: time.Nanosecond, Cooldown: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*sched.Job
	for i := 0; i < 16; i++ {
		j, err := s.Submit(sched.JobSpec{Kind: sched.KindTSQR, M: 1 << 12, N: 16, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if changed, _ := as.Step(); !changed {
		t.Fatal("pressured autoscaler did not act")
	}
	for i := 0; i < 3; i++ {
		if changed, _ := as.Step(); changed {
			t.Fatalf("step %d inside cooldown acted", i)
		}
	}
	for _, j := range jobs {
		j.Result()
	}
}
