package simnet

import "testing"

// countNet is the least transport a handoff benchmark needs: a count of
// undelivered messages per (receiver, sender) pair and one registered
// wait per proc. It allocates nothing per message, so what the
// benchmark times is the scheduler's dispatch and park.
type countNet struct {
	s       *Scheduler
	n       int
	arrived []int // arrived[to*n+from] = undelivered messages
	waitFor []int // sender a parked proc waits on, -1 if none
}

func newCountNet(n int) *countNet {
	c := &countNet{n: n, arrived: make([]int, n*n), waitFor: make([]int, n)}
	for i := range c.waitFor {
		c.waitFor[i] = -1
	}
	c.s = New(n, func(int) float64 { return 0 })
	return c
}

func (c *countNet) send(from, to int) {
	c.arrived[to*c.n+from]++
	if c.waitFor[to] == from {
		c.waitFor[to] = -1
		c.s.Unpark(to)
	}
}

func (c *countNet) recv(to, from int) {
	for c.arrived[to*c.n+from] == 0 {
		c.waitFor[to] = from
		c.s.Park()
	}
	c.arrived[to*c.n+from]--
}

// allreduce is one binomial reduce to proc 0 and the broadcast back
// down the same tree: the message pattern of one Allreduce.
func (c *countNet) allreduce(id int) {
	low := c.n // id's lowest set bit; proc 0 is the root
	for mask := 1; mask < c.n; mask <<= 1 {
		if id&mask != 0 {
			low = mask
			c.send(id, id-mask)
			break
		}
		c.recv(id, id+mask)
	}
	if id != 0 {
		c.recv(id, id-low)
	}
	for mask := low >> 1; mask > 0; mask >>= 1 {
		c.send(id, id+mask)
	}
}

// BenchmarkDispatchPark times one handoff — a proc dispatched by Run
// until it parks or returns — on a 2-proc ping-pong and on 256 procs
// doing one binomial allreduce per iteration (510 messages). ns/handoff
// is the wall time over Stats().Dispatches.
func BenchmarkDispatchPark(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
		op   func(c *countNet, id int)
	}{
		{"pingpong", 2, func(c *countNet, id int) {
			if id == 0 {
				c.send(0, 1)
				c.recv(0, 1)
			} else {
				c.recv(1, 0)
				c.send(1, 0)
			}
		}},
		{"allreduce256", 256, (*countNet).allreduce},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := newCountNet(bc.n)
			b.ReportAllocs()
			b.ResetTimer()
			c.s.Run(func(id int) {
				for i := 0; i < b.N; i++ {
					bc.op(c, id)
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.s.Stats().Dispatches), "ns/handoff")
		})
	}
}
