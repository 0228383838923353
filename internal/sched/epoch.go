package sched

import (
	"fmt"
	"strconv"

	"gridqr/internal/mpi"
	"gridqr/internal/perfmodel"
	"gridqr/internal/telemetry"
)

// epochCmd re-forms one rank's partition membership: the rank joins
// partition color (or becomes a spare when color < 0) by deriving the
// epoch-scoped sub-communicator from the member list. Sub is
// collective-free, so re-forming sends no messages and dead ranks are
// simply skipped.
type epochCmd struct {
	epoch   int
	color   int
	members []int // world ranks, ascending; nil for spares
}

// rankCmd is one instruction to a rank goroutine: either re-form into a
// new epoch's partition, or run one execution on the current partition.
type rankCmd struct {
	epoch *epochCmd
	ex    *jobExec
}

// installPartitionsLocked replaces the partition set with the plan's
// groups for the current epoch. Caller holds s.mu.
func (s *Server) installPartitionsLocked(plan Plan) {
	s.parts = nil
	for pi, members := range plan.Groups {
		gauge := s.obs.reg.GaugeL("sched.queue.depth",
			telemetry.Labels{"partition": strconv.Itoa(pi)})
		p := &partition{
			index:   pi,
			epoch:   s.epoch,
			members: append([]int(nil), members...),
			pred:    perfmodel.Predictor{G: subGrid(s.cfg.Grid, members)},
			q:       newQueue(partitionQueueCap, s.queueDrop, gauge),
		}
		p.healthy.Store(true)
		s.parts = append(s.parts, p)
	}
	s.metrics.partitions.Set(float64(len(s.parts)))
	s.metrics.epoch.Set(float64(s.epoch))
}

// sendEpochLocked tells every live rank its membership for the current
// epoch. Dead ranks are skipped — they have no consumer. Caller holds
// s.mu; consumers never need it, so a (briefly) blocking send is safe.
func (s *Server) sendEpochLocked() {
	n := s.cfg.Grid.Procs()
	color := make([]int, n)
	for r := range color {
		color[r] = -1
	}
	for _, p := range s.parts {
		for _, wr := range p.members {
			color[wr] = p.index
		}
	}
	for r := 0; r < n; r++ {
		if s.world.RankDead(r) {
			continue
		}
		e := &epochCmd{epoch: s.epoch, color: color[r]}
		if color[r] >= 0 {
			e.members = s.parts[color[r]].members
		}
		s.rankChans[r] <- rankCmd{epoch: e}
	}
}

func (s *Server) spawnRunnersLocked() {
	for _, p := range s.parts {
		s.runnerWG.Add(1)
		go s.runner(p)
	}
}

// Reconfigure replaces the partition plan at an epoch boundary: running
// preemptible jobs checkpoint at their next tree-stage boundary (others
// finish), queued jobs are re-routed onto the new partitions, and the
// new epoch's sub-communicators form over the plan's ranks — which may
// exclude dead ranks, so an autoscaler can re-form over survivors. The
// plan may leave holes where dead ranks were (validateSparse), but must
// not include a dead rank.
func (s *Server) Reconfigure(plan Plan) error {
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	if s.closed.Load() {
		return ErrServerClosed
	}
	if err := plan.validateSparse(s.cfg.Grid); err != nil {
		return err
	}
	for _, members := range plan.Groups {
		for _, r := range members {
			if s.world.RankDead(r) {
				return fmt.Errorf("sched: plan includes dead rank %d", r)
			}
		}
	}

	// Retire the current epoch: request preemption of in-flight
	// preemptible executions and wake idle runners so they exit.
	s.mu.Lock()
	s.reconfiguring = true
	for _, p := range s.parts {
		p.retired.Store(true)
		if ex := p.cur.Load(); ex != nil && ex.gate != nil {
			ex.gate.Request()
		}
	}
	s.workGen++
	s.workCond.Broadcast()
	s.mu.Unlock()

	s.runnerWG.Wait()

	// Install the new epoch and re-route displaced work; the new runners
	// start after, with their queues already filled.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	orphans := s.takeAllLocked()
	s.installPartitionsLocked(plan)
	s.sendEpochLocked()
	s.reconfiguring = false
	for _, j := range orphans {
		s.requeueLocked(j, -1)
	}
	s.spawnRunnersLocked()
	return nil
}

// rankMain runs on every world rank: follow the epoch commands into the
// current partition's sub-communicator (collective-free, so re-forming
// costs no messages), and serve executions in between. Spares idle on
// their channel until an epoch includes them.
func (s *Server) rankMain(ctx *mpi.Ctx) {
	world := mpi.WorldComm(ctx)
	var pcomm *mpi.Comm
	for cmd := range s.rankChans[ctx.Rank()] {
		if cmd.epoch != nil {
			e := cmd.epoch
			if e.color < 0 {
				pcomm = nil
				continue
			}
			pcomm = world.Sub(e.members, fmt.Sprintf("e%d.p%d", e.epoch, e.color))
			continue
		}
		s.runExec(ctx, pcomm, pcomm.Rank(), cmd.ex)
	}
}
