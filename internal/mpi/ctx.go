package mpi

import (
	"fmt"
	"time"

	"gridqr/internal/grid"
	"gridqr/internal/telemetry"
)

// Ctx is a rank's handle on the world: the receiver of every
// communication and cost-accounting call a distributed algorithm makes.
// A Ctx is used only by its own rank's goroutine.
type Ctx struct {
	world *World
	rank  int
}

// Rank returns this process's world rank.
func (c *Ctx) Rank() int { return c.rank }

// Size returns the world size.
func (c *Ctx) Size() int { return c.world.n }

// HasData reports whether local numerical data exists in this mode;
// cost-only simulations report false. Kernel skips the arithmetic and a
// sized Send the payload there, while every communication and charge
// still happens; algorithms ask HasData directly only to validate or
// require data, materialize an input, or build a collective's
// contribution.
func (c *Ctx) HasData() bool { return c.world.hasData }

// Virtual reports whether time is simulated.
func (c *Ctx) Virtual() bool { return c.world.virtual }

// LocalCounters returns a snapshot of this rank's own traffic and flop
// tallies: messages and bytes it sent (per link class) and flops it was
// charged. Unlike World.Counters these are owner-goroutine values with no
// lock on the hot path, and deltas around a bracketed region attribute
// traffic to that region exactly — the mechanism the job scheduler uses
// to account messages and bytes per job.
func (c *Ctx) LocalCounters() CounterSnapshot { return c.world.rankCounts[c.rank] }

// World returns the Ctx's world, for counter access in tests.
func (c *Ctx) World() *World { return c.world }

// Cluster returns the index of the geographical site this rank is placed
// on — the information QCG-OMPI exposes through JobProfile group ids.
func (c *Ctx) Cluster() int { return c.world.cluster[c.rank] }

// Now returns this rank's current time: virtual seconds in virtual mode,
// wall-clock seconds since Run started otherwise.
func (c *Ctx) Now() float64 {
	if c.world.virtual {
		return c.world.clocks[c.rank]
	}
	return time.Since(c.world.start).Seconds()
}

// tracing reports whether this rank records structured spans: a traced
// virtual world (the trace model is driven by the simulated clock). The
// collector behind the check is either the unbounded Trace or a bounded
// Ring; span-writing sites below do not care which.
func (c *Ctx) tracing() bool { return c.world.collector != nil && c.world.virtual }

// Phase opens a named algorithm-phase span on this rank's track and
// returns its closer:
//
//	defer ctx.Phase("panel")()
//
// Phases nest and overlay the compute/wait timeline in trace viewers; on
// an untraced (or real-mode) world the call is a cheap no-op.
func (c *Ctx) Phase(name string) func() {
	if !c.tracing() {
		return func() {}
	}
	c.world.collector.BeginPhase(c.rank, name, c.world.clocks[c.rank])
	return func() { c.world.collector.EndPhase(c.rank, c.world.clocks[c.rank]) }
}

// maybeDie kills this rank when the fault plan says its time has come: a
// killSentinel panic unwinds the goroutine and World.Run records the
// death. Operation counts are per-rank program points, so the death site
// is identical across runs.
func (c *Ctx) maybeDie() {
	plan := c.world.plan
	if plan == nil {
		return
	}
	if k, ok := plan.killAt[c.rank]; ok && c.world.fstate[c.rank].ops >= k {
		if c.tracing() {
			now := c.world.clocks[c.rank]
			c.world.collector.Add(telemetry.Span{Rank: c.rank, Kind: telemetry.EventFault,
				Start: now, End: now, Peer: -1, Link: telemetry.LinkNone, FlowSeq: -1,
				Fault: "kill", Value: float64(c.world.fstate[c.rank].ops)})
		}
		panic(killSentinel{rank: c.rank})
	}
}

// Kernel runs one local kernel and charges its flopCount floating-point
// operations. body runs only on a data world (a cost-only world charges
// the same flops without computing) and never on a rank the fault plan
// kills here; a nil body charges without work. panelN is the kernel's
// innermost dimension, which selects its efficiency per the grid's
// saturating-rate model. In virtual mode the rank's clock advances, and a
// traced world records a compute span carrying name and the flop count,
// so traced runs attribute virtual time (and effective Gflop/s) to
// specific kernels.
func (c *Ctx) Kernel(name string, flopCount float64, panelN int, body func()) {
	c.maybeDie()
	c.world.fstate[c.rank].ops++
	if body != nil && c.world.hasData {
		body()
	}
	c.world.counters.addFlops(flopCount)
	c.world.rankCounts[c.rank].Flops += flopCount
	if m := c.world.metrics; m != nil {
		m.flops.Add(flopCount)
	}
	if !c.world.virtual {
		return
	}
	rate := c.world.g.KernelGflops(c.Cluster(), panelN) * 1e9
	dur := flopCount / rate * c.world.slowdown[c.rank]
	start := c.world.clocks[c.rank]
	c.world.clocks[c.rank] = start + dur
	c.world.compute[c.rank] += dur
	if c.tracing() && dur > 0 {
		// Zero-flop charges (degenerate panel shapes) advance nothing and
		// would only clutter the trace with zero-duration spans.
		c.world.collector.Add(telemetry.Span{Rank: c.rank, Kind: telemetry.SpanCompute,
			Name: name, Start: start, End: start + dur, Peer: -1,
			Link: telemetry.LinkNone, FlowSeq: -1, Flops: flopCount})
	}
}

// Sleep advances this rank's virtual clock by the given seconds (no-op in
// real mode); used to model fixed software overheads.
func (c *Ctx) Sleep(seconds float64) {
	if c.world.virtual {
		c.world.clocks[c.rank] += seconds
	}
}

// sendE is the single point every transfer goes through: it prices the
// message on the link between the two ranks, counts it, applies the
// fault plan (extra delay, dropped delivery attempts with bounded
// retry-and-backoff), and enqueues it. It returns a typed
// RankFailedError when every delivery attempt was dropped. Sends to a
// dead rank succeed silently — the transport is one-sided and eager, so
// only receivers observe peer death; this also keeps every send outcome
// independent of goroutine scheduling.
func (c *Ctx) sendE(to int, comm string, tag int, data []float64, bytes float64) error {
	c.maybeDie()
	if to < 0 || to >= c.world.n {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", to))
	}
	if to == c.rank {
		panic("mpi: send to self (algorithms must special-case self-messages)")
	}
	st := c.world.fstate[c.rank]
	st.ops++
	w := c.world
	from, dst := w.cluster[c.rank], w.cluster[to]
	link, class := w.g.Link(from, w.node[c.rank], dst, w.node[to])
	var extra float64 // fault-induced seconds on top of the link cost
	if plan := c.world.plan; plan != nil {
		for ri := range plan.rules {
			r := &plan.rules[ri]
			if r.Kind != FaultDelay || !r.matches(c.rank, to, tag) {
				continue
			}
			if r.Count > 0 && st.fires[ri] >= r.Count {
				continue
			}
			st.decisions++
			if faultUniform(plan.Seed, c.rank, to, tag, st.decisions) < r.Prob {
				st.fires[ri]++
				extra += r.Delay
				c.noteFault("delay", to, class, r.Delay)
			}
		}
		for attempt := 1; ; attempt++ {
			dropped := false
			for ri := range plan.rules {
				r := &plan.rules[ri]
				if r.Kind != FaultDrop || !r.matches(c.rank, to, tag) {
					continue
				}
				if r.Count > 0 && st.fires[ri] >= r.Count {
					continue
				}
				st.decisions++
				if faultUniform(plan.Seed, c.rank, to, tag, st.decisions) < r.Prob {
					st.fires[ri]++
					dropped = true
					c.noteFault("drop", to, class, float64(attempt))
					break
				}
			}
			if !dropped {
				break
			}
			if attempt >= plan.MaxRetries {
				return &RankFailedError{Rank: to, Op: "send"}
			}
			// The transport retries with backoff: a retransmission, as
			// visible (and costly) as the drop that forced it.
			extra += plan.RetryBackoff * float64(attempt)
			c.noteFault("retransmit", to, class, float64(attempt+1))
		}
	}
	c.world.counters.record(class, from, dst, bytes)
	rc := &c.world.rankCounts[c.rank]
	rc.PerClass[class].Msgs++
	rc.PerClass[class].Bytes += bytes
	if m := c.world.metrics; m != nil {
		m.msgs[class].Inc()
		m.bytes[class].Add(bytes)
		m.msgSize[class].Observe(bytes)
	}
	seq := c.world.sendSeq[c.rank]
	c.world.sendSeq[c.rank]++
	m := message{from: c.rank, seq: seq, comm: comm, tag: tag, data: data, bytes: bytes, class: int(class)}
	if c.world.virtual {
		now := c.world.clocks[c.rank]
		m.arrival = now + extra + link.TransferTime(bytes)
		if c.tracing() {
			c.world.collector.Add(telemetry.Span{Rank: c.rank, Kind: telemetry.EventSend,
				Start: now, End: now, Peer: to, Bytes: bytes, Tag: tag,
				Link: int8(class), CrossSite: class == grid.InterCluster,
				FlowFrom: c.rank, FlowSeq: seq})
		}
	} else if extra > 0 {
		time.Sleep(time.Duration(extra * float64(time.Second)))
	}
	c.world.eng.deliver(to, m)
	return nil
}

// noteFault tallies one injected fault ("drop", "delay" or "retransmit")
// and, in a traced virtual world, records it on the sender's timeline so
// chaos runs are debuggable span by span.
func (c *Ctx) noteFault(kind string, peer int, class grid.LinkClass, value float64) {
	c.world.faultMu.Lock()
	switch kind {
	case "drop":
		c.world.faultCounts.Drops++
	case "delay":
		c.world.faultCounts.Delays++
	case "retransmit":
		c.world.faultCounts.Retransmits++
	}
	c.world.faultMu.Unlock()
	if m := c.world.metrics; m != nil {
		switch kind {
		case "drop":
			m.drops.Inc()
		case "delay":
			m.delays.Inc()
		case "retransmit":
			m.retransmits.Inc()
		}
	}
	if c.tracing() {
		now := c.world.clocks[c.rank]
		c.world.collector.Add(telemetry.Span{Rank: c.rank, Kind: telemetry.EventFault,
			Start: now, End: now, Peer: peer, Link: int8(class),
			CrossSite: class == grid.InterCluster, FlowSeq: -1, Fault: kind, Value: value})
	}
}

// recvE blocks for the matching message and, in virtual mode, advances
// the local clock to its arrival time, attributing the idle gap to the
// link class the message traversed (the per-class wait breakdown of
// World.Breakdown). Compute charged before the receive has already
// advanced the clock, so only the not-yet-elapsed remainder of the
// transfer counts as wait — the eager transport's overlap. With a fault
// plan armed, a receive from a dead rank whose matching message was never
// sent returns a typed RankFailedError (messages already in flight when
// the sender died are still delivered), and the plan's RecvTimeout
// bounds the wall-clock wait.
func (c *Ctx) recvE(from int, comm string, tag int) (message, error) {
	c.maybeDie()
	if from < 0 || from >= c.world.n {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", from))
	}
	c.world.fstate[c.rank].ops++
	var isDead func() bool
	var timeout time.Duration
	if c.world.plan != nil {
		isDead = func() bool { return c.world.dead[from].Load() }
		timeout = c.world.plan.RecvTimeout
	}
	m, err := c.world.eng.receive(c.rank, from, comm, tag, isDead, timeout)
	if err != nil || !c.world.virtual {
		return m, err
	}
	if m.arrival > c.world.clocks[c.rank] {
		start := c.world.clocks[c.rank]
		c.world.wait[c.rank][m.class] += m.arrival - start
		c.world.clocks[c.rank] = m.arrival
		if c.tracing() {
			c.world.collector.Add(telemetry.Span{Rank: c.rank, Kind: telemetry.SpanWait,
				Start: start, End: m.arrival, Peer: from, Bytes: m.bytes, Tag: tag,
				Link: int8(m.class), CrossSite: grid.LinkClass(m.class) == grid.InterCluster,
				FlowFrom: m.from, FlowSeq: m.seq})
		}
	} else if c.tracing() {
		// The message beat the receiver: no wait span, but the flow
		// edge still closes here (happens-before is preserved).
		now := c.world.clocks[c.rank]
		c.world.collector.Add(telemetry.Span{Rank: c.rank, Kind: telemetry.EventRecv,
			Start: now, End: now, Peer: from, Bytes: m.bytes, Tag: tag,
			Link: int8(m.class), CrossSite: grid.LinkClass(m.class) == grid.InterCluster,
			FlowFrom: m.from, FlowSeq: m.seq})
	}
	return m, nil
}
