package mpi

import (
	"sync"

	"gridqr/internal/grid"
	"gridqr/internal/telemetry"
)

// LinkCount tallies traffic on one link class.
type LinkCount struct {
	Msgs  int64
	Bytes float64
}

// CounterSnapshot is an immutable copy of a world's traffic counters,
// indexed by grid.LinkClass. These measured counts are what the
// experiment harness compares against the paper's Table I/II model and
// the Fig. 1 / Fig. 2 inter-cluster message argument.
type CounterSnapshot struct {
	PerClass [3]LinkCount
	Flops    float64
}

// Total returns message count and bytes summed over all classes.
func (s CounterSnapshot) Total() LinkCount {
	var t LinkCount
	for _, c := range s.PerClass {
		t.Msgs += c.Msgs
		t.Bytes += c.Bytes
	}
	return t
}

// Inter returns the inter-cluster tally, the quantity the paper's tuned
// reduction tree minimizes.
func (s CounterSnapshot) Inter() LinkCount { return s.PerClass[grid.InterCluster] }

// Counters is the mutable, concurrency-safe accumulator behind
// CounterSnapshot and the world's site×site traffic matrix.
type Counters struct {
	mu       sync.Mutex
	perClass [3]LinkCount
	flops    float64
	sites    telemetry.CommMatrix // [sender's site][receiver's site]
}

func (c *Counters) record(class grid.LinkClass, from, to int, bytes float64) {
	c.mu.Lock()
	c.perClass[class].Msgs++
	c.perClass[class].Bytes += bytes
	c.sites.Msgs[from][to]++
	c.sites.Bytes[from][to] += bytes
	c.mu.Unlock()
}

func (c *Counters) addFlops(f float64) {
	c.mu.Lock()
	c.flops += f
	c.mu.Unlock()
}

func (c *Counters) snapshot() CounterSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CounterSnapshot{PerClass: c.perClass, Flops: c.flops}
}

func (c *Counters) commMatrix() telemetry.CommMatrix {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := telemetry.NewCommMatrix(c.sites.Names)
	for i := range m.Msgs {
		copy(m.Msgs[i], c.sites.Msgs[i])
		copy(m.Bytes[i], c.sites.Bytes[i])
	}
	return m
}
