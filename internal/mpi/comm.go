package mpi

import "fmt"

// Comm is a communicator: an ordered group of world ranks with its own
// rank numbering and tag space, the abstraction the paper's application
// uses to confine ScaLAPACK calls within a geographical site.
type Comm struct {
	ctx     *Ctx
	path    string // tag namespace, unique per communicator tree node
	members []int  // world ranks, index = comm rank
	rank    int    // this process's comm rank
}

// WorldComm returns the communicator spanning all ranks, with comm rank
// equal to world rank. The member table is built once per world and
// shared by every rank: at tens of thousands of ranks a per-rank copy
// would cost O(ranks²) memory for a table whose content is just the
// identity.
func WorldComm(ctx *Ctx) *Comm {
	members := ctx.world.Shared(worldMembersKey{}, func() any {
		m := make([]int, ctx.Size())
		for i := range m {
			m[i] = i
		}
		return m
	}).([]int)
	return &Comm{ctx: ctx, path: "w", members: members, rank: ctx.Rank()}
}

// worldMembersKey is the World.Shared key of the world communicator's
// member table.
type worldMembersKey struct{}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.members) }

// Ctx returns the underlying process context.
func (c *Comm) Ctx() *Ctx { return c.ctx }

// ClusterOf returns the geographical site of a comm rank, translating
// through the member list. Algorithms query topology through this (never
// through world ranks directly), so the same code runs unchanged on the
// world communicator and on a Sub partition of it.
func (c *Comm) ClusterOf(r int) int {
	return c.ctx.world.cluster[c.members[r]]
}

// NodeOf returns the grid-global node index of a comm rank (nodes
// numbered cluster-major), the finest level of the platform hierarchy.
func (c *Comm) NodeOf(r int) int {
	return c.ctx.world.node[c.members[r]]
}

// ContinentOf returns the continent of a comm rank's site, the coarsest
// level of the platform hierarchy (always 0 on single-continent grids).
func (c *Comm) ContinentOf(r int) int {
	return c.ctx.world.g.ContinentOf(c.ClusterOf(r))
}

// Path returns the communicator's tag-namespace path. It is identical on
// every member rank and unique per communicator tree node, which makes it
// a usable key for world-level caches of communicator-derived structures
// (see World.Shared).
func (c *Comm) Path() string { return c.path }

// checkTag rejects negative user tags: tags < 0 are reserved for the
// communicator's own collective traffic, and a user message carrying one
// could cross-match a collective's.
func (c *Comm) checkTag(tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: user tag %d is invalid: tags must be >= 0 (negative tags are reserved for collectives)", tag))
	}
}

// Send transmits data to comm rank `to` with the given tag (which must be
// >= 0). The payload slice must not be mutated afterwards (messages are
// not copied). A stated length n sizes the message instead of len(data):
// a cost-only world passes a nil payload for the matrix it never
// materialized and is priced at 8n bytes, and any other payload must hold
// exactly n floats.
func (c *Comm) Send(to int, data []float64, tag int, n ...int) {
	if err := c.TrySend(to, data, tag, n...); err != nil {
		panic(err)
	}
}

// Recv blocks until the matching message from comm rank `from` arrives
// and returns its payload (nil for a cost-only world's sized sends).
func (c *Comm) Recv(from, tag int) []float64 {
	c.checkTag(tag)
	return c.recvRaw(from, tag)
}

// TrySend is Send with an error return: a *RankFailedError when every
// delivery attempt was dropped by the fault plan. Without a fault plan it
// never fails.
func (c *Comm) TrySend(to int, data []float64, tag int, n ...int) error {
	c.checkTag(tag)
	size := len(data)
	switch {
	case len(n) > 1:
		panic("mpi: a send states one payload length")
	case len(n) == 1:
		if len(data) != n[0] && (data != nil || c.ctx.world.hasData) {
			panic(fmt.Sprintf("mpi: send on tag %d states %d floats but carries %d", tag, n[0], len(data)))
		}
		size = n[0]
	}
	return c.ctx.sendE(c.members[to], c.path, tag, data, 8*float64(size))
}

// TryRecv is Recv with an error return: a *RankFailedError when the
// sender died before sending the matching message, or a *TimeoutError
// when the plan's RecvTimeout expired first. Without a fault plan it
// never fails.
func (c *Comm) TryRecv(from, tag int) ([]float64, error) {
	c.checkTag(tag)
	return c.tryRecvRaw(from, tag)
}

// sendRaw / recvRaw bypass tag validation for the communicator's own
// collective traffic on reserved negative tags. sendRaw prices n floats,
// which a cost-only collective sends as a nil payload.
func (c *Comm) sendRaw(to int, data []float64, n, tag int) {
	if err := c.ctx.sendE(c.members[to], c.path, tag, data, 8*float64(n)); err != nil {
		panic(err)
	}
}

func (c *Comm) recvRaw(from, tag int) []float64 {
	data, err := c.tryRecvRaw(from, tag)
	if err != nil {
		panic(err)
	}
	return data
}

func (c *Comm) tryRecvRaw(from, tag int) ([]float64, error) {
	m, err := c.ctx.recvE(c.members[from], c.path, tag)
	if err != nil {
		return nil, err
	}
	return m.data, nil
}

// Sub creates a sub-communicator from an explicit member list (comm
// ranks, in the new rank order). Every member must call Sub with the same
// list and the same label; distinct concurrent sub-communicators of one
// parent must use distinct labels (the label scopes the tag space).
// Ranks outside the list must not call. No communication is involved —
// this is how an application with global topology knowledge (a QCG-OMPI
// JobProfile) builds communicators for free.
func (c *Comm) Sub(members []int, label string) *Comm {
	world := make([]int, len(members))
	myRank := -1
	for i, m := range members {
		if m < 0 || m >= len(c.members) {
			panic(fmt.Sprintf("mpi: Sub member %d out of range", m))
		}
		world[i] = c.members[m]
		if m == c.rank {
			myRank = i
		}
	}
	if myRank < 0 {
		panic("mpi: Sub called by a rank not in the member list")
	}
	return &Comm{ctx: c.ctx, path: c.path + "/" + label, members: world, rank: myRank}
}

// Dup returns a communicator with the same members and rank order as c
// but a fresh tag namespace (messages are matched by path, and the dup
// gets its own). Long-lived services use it to wall off one round of
// traffic from the next: after a timeout abandons messages in flight on
// c, work continues on a dup where a stale delayed message can never
// alias a fresh tag. Like Sub it is collective-free, but every member
// must call it with the same label to land on the same namespace.
func (c *Comm) Dup(label string) *Comm {
	return &Comm{ctx: c.ctx, path: c.path + "/" + label, members: c.members, rank: c.rank}
}
