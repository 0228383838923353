package mpi

// Binomial-tree collectives: the broadcast and the allreduce the
// algorithms call. The tree over p ranks has depth ⌈log₂ p⌉ and p−1
// edges, so a reduce or broadcast costs log₂(P) messages on the critical
// path — the term the paper's Table I/II model counts per allreduce.
// Both panic with the typed error (*RankFailedError or *TimeoutError)
// when a fault plan makes a tree partner unreachable; fault-tolerant
// algorithms use TrySend/TryRecv instead.

// Op combines src into dst elementwise (dst is the accumulator).
type Op func(dst, src []float64)

// OpSum adds src into dst.
func OpSum(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// OpMax keeps the elementwise maximum in dst.
func OpMax(dst, src []float64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// Tags reserved for collective traffic; user tags must be >= 0.
const (
	bcastTag  = -2
	reduceTag = -3
)

// Bcast broadcasts data from root along a binomial tree. Every rank
// passes a slice of equal length; non-root contents are overwritten.
// The slice is returned for convenience.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	n := c.Size()
	if n == 1 {
		return data
	}
	defer c.ctx.Phase("bcast")()
	// Rotate so root is relative rank 0.
	me := (c.rank - root + n) % n
	abs := func(rel int) int { return (rel + root) % n }
	// Receive from the parent (clear the lowest set bit), then forward to
	// the children below it (set each lower bit while in range).
	if me != 0 {
		copy(data, c.recvRaw(abs(me&(me-1)), bcastTag))
	}
	for mask := 1; mask < n && me&mask == 0; mask <<= 1 {
		if child := me | mask; child < n {
			c.sendRaw(abs(child), data, len(data), bcastTag)
		}
	}
	return data
}

// Allreduce reduces to comm rank 0 and broadcasts back, returning the
// combined vector on every rank. This is the "single complex allreduce"
// structure of the paper's Section II-C; cost 2·log₂(P) messages on the
// critical path. The caller's data slice is never mutated, but ownership
// of it passes to the collective (it may be forwarded by reference).
func (c *Comm) Allreduce(data []float64, op Op) []float64 {
	return c.allreduce(data, op, nil)
}

// AllreduceOverlap is Allreduce with a compute hook: spare (if non-nil)
// is invoked at every point where this rank is about to block on a tree
// partner — before each reduce-phase child receive, and before the
// broadcast-phase parent receive once the rank's own contribution has
// been posted. The hook is meant to run a bounded chunk of deferred
// local work (e.g. a slice of a trailing-matrix update): on the virtual
// clock that compute elapses while the partner's message is in flight,
// so the subsequent receive charges only the remainder of the transfer
// as wait. Traffic — message count, sizes, tree shape — is identical to
// Allreduce, so the exact perfmodel counts are unchanged. How often
// spare runs depends only on the rank's position in the binomial tree,
// never on message timing, so fault injection and virtual timings stay
// deterministic.
func (c *Comm) AllreduceOverlap(data []float64, op Op, spare func()) []float64 {
	return c.allreduce(data, op, spare)
}

// allreduce is the body of both allreduces: a binomial reduce to rank 0,
// then a binomial broadcast from it, calling spare (when set) before
// every receive. A cost-only world's contributions are zeros that no
// caller reads, so it walks the same tree with sized nil payloads —
// same messages, bytes and spare points — skips the copy and the op,
// and hands the caller its own slice back. On the event engine, with no
// fault plan and no spare hook, nothing observes the individual
// messages either: the members meet at one rendezvous
// (eventEngine.allreduce) that prices the same 2(P−1) messages
// arithmetically and leaves every clock, wait, counter and span as this
// walk would.
func (c *Comm) allreduce(data []float64, op Op, spare func()) []float64 {
	n := c.Size()
	if n == 1 {
		return data
	}
	defer c.ctx.Phase("allreduce")()
	if e, ok := c.ctx.world.eng.(*eventEngine); ok && c.ctx.world.plan == nil && spare == nil {
		e.allreduce(c, len(data))
		return data
	}
	me, size := c.rank, len(data)
	carry := c.ctx.world.hasData
	acc := data
	if !carry {
		acc = nil
	}
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			c.sendRaw(me&^mask, acc, size, reduceTag)
			break
		}
		if child := me | mask; child < n {
			if spare != nil {
				spare()
			}
			got := c.recvRaw(child, reduceTag)
			if !carry {
				continue
			}
			// Accumulate into a private copy the first time so the
			// caller's slice is never mutated.
			if len(acc) > 0 && &acc[0] == &data[0] {
				acc = append([]float64(nil), acc...)
			}
			op(acc, got)
		}
	}
	out := acc
	// Broadcast phase: non-root ranks block on their parent — the one
	// wait every leaf pays — so the spare hook runs once more first.
	if me != 0 {
		if spare != nil {
			spare()
		}
		got := c.recvRaw(me&(me-1), bcastTag)
		if carry {
			out = make([]float64, size)
			copy(out, got)
		}
	}
	for mask := 1; mask < n && me&mask == 0; mask <<= 1 {
		if child := me | mask; child < n {
			c.sendRaw(child, out, size, bcastTag)
		}
	}
	if !carry {
		return data
	}
	return out
}
