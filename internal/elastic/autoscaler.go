package elastic

import (
	"fmt"
	"time"

	"gridqr/internal/perfmodel"
	"gridqr/internal/sched"
)

// Policy tunes the autoscaler's decisions. The scale-up signal is the
// perfmodel drain-time prediction for the current backlog — the same
// Equation 1 model that prices jobs everywhere else — not a bare queue
// threshold, so the policy adapts to job shape and platform for free.
type Policy struct {
	// M, N is the canonical job shape the drain prediction prices.
	M, N int
	// Target is the drain-time SLO: predicted time to clear the backlog
	// above which the autoscaler grows to the next ladder level.
	Target time.Duration
	// Cooldown is the number of Step calls that must pass between two
	// scaling operations, damping oscillation on bursty arrivals.
	Cooldown int
}

// Config configures an Autoscaler over a running scheduler.
type Config struct {
	// Ladder lists the partition plans in ascending capacity order;
	// Ladder[0] must be the plan the server was started with. Every
	// level's partitions should be the same size, so per-job traffic is
	// invariant under scaling.
	Ladder []sched.Plan
	// Pred prices ONE partition (construct it with Sites limited to the
	// sites one partition spans).
	Pred perfmodel.Predictor
	// Policy tunes the decisions; a zero Target disables scale-up.
	Policy Policy
}

// Autoscaler grows and shrinks a scheduler's partition plan along a
// capacity ladder, installing each level over the live ranks.
// It is driven synchronously: the load harness (or an operator loop)
// calls Step between arrivals; the autoscaler never spawns goroutines.
type Autoscaler struct {
	srv   *sched.Server
	cfg   Config
	level int
	cool  int

	ups, downs int
}

// New wraps a running server. The server must currently be running
// Ladder[0].
func New(srv *sched.Server, cfg Config) (*Autoscaler, error) {
	if len(cfg.Ladder) == 0 {
		return nil, fmt.Errorf("elastic: empty ladder")
	}
	for i, plan := range cfg.Ladder {
		if len(plan.Groups) == 0 {
			return nil, fmt.Errorf("elastic: ladder level %d has no partitions", i)
		}
	}
	return &Autoscaler{srv: srv, cfg: cfg}, nil
}

// Level returns the current ladder level.
func (a *Autoscaler) Level() int { return a.level }

// Stats returns the cumulative scale-up and scale-down counts.
func (a *Autoscaler) Stats() (ups, downs int) {
	return a.ups, a.downs
}

// Step reads the server's SLO snapshot and applies at most one scaling
// action: up a level when the predicted drain time of the backlog
// exceeds the policy target, down a level when the queue is empty and
// the cooldown has passed. Returns whether the plan changed.
func (a *Autoscaler) Step() (bool, error) {
	if a.cool > 0 {
		a.cool--
		return false, nil
	}
	slo := a.srv.SLO()
	backlog := slo.QueueDepth + slo.InFlight
	pol := a.cfg.Policy
	switch {
	case pol.Target > 0 && a.level+1 < len(a.cfg.Ladder) &&
		a.cfg.Pred.DrainTime(backlog, a.partitions(a.level), pol.M, pol.N) > pol.Target.Seconds():
		a.level++
		a.ups++
	case a.level > 0 && slo.QueueDepth == 0 &&
		!a.cfg.Pred.DeadlineRisk(pol.Target.Seconds(), slo.InFlight, pol.M, pol.N):
		a.level--
		a.downs++
	default:
		return false, nil
	}
	a.cool = pol.Cooldown
	return true, a.apply()
}

func (a *Autoscaler) partitions(level int) int {
	return len(a.cfg.Ladder[level].Groups)
}

// apply reconfigures the server to the current level, excluding dead
// ranks (the epoch machinery forms sub-communicators collective-free
// over exactly the survivors).
func (a *Autoscaler) apply() error {
	world := a.srv.World()
	plan := sched.Plan{}
	for _, members := range a.cfg.Ladder[a.level].Groups {
		var alive []int
		for _, r := range members {
			if !world.RankDead(r) {
				alive = append(alive, r)
			}
		}
		if len(alive) > 0 {
			plan.Groups = append(plan.Groups, alive)
		}
	}
	if len(plan.Groups) == 0 {
		return fmt.Errorf("elastic: no survivors at ladder level %d", a.level)
	}
	return a.srv.Reconfigure(plan)
}
