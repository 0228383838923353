package core

import (
	"fmt"

	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// Factorize runs QCG-TSQR on a communicator: the world comm returned by
// mpi.WorldComm, or any site-aligned partition of it built with
// Comm.Split/Comm.Sub (comm ranks on the same site must be consecutive,
// which grid placement guarantees for cluster-aligned partitions). The R
// factor lands on comm rank 0; Input offsets and rank references are comm
// ranks. Input.Local is overwritten with factorization internals, like
// LAPACK. See Config for the tree and domain knobs.
func Factorize(comm *mpi.Comm, in Input, cfg Config) *Result {
	in.validate(comm)
	if cfg.KeepFactors && comm.Size() > applyTagStride {
		panic(fmt.Sprintf("core: KeepFactors supports at most %d processes", applyTagStride))
	}
	ctx := comm.Ctx()
	cs := scheduleFor(comm, cfg)
	l := cs.l
	me := comm.Rank()
	dom := l.mine(me)
	in.checkTall(dom)

	leafDone := ctx.Phase("tsqr.panel")
	leaf := factorLeaf(comm, in, dom, cfg)
	leafDone()
	res := &Result{Domains: len(l.domains)}

	// Forward reduction over domain leaders. Non-leaders are done until
	// the Q pass.
	tq := treeQ{sentTo: -1, sentTag: -1}
	if me == dom.leader() {
		combineDone := ctx.Phase("tsqr.combine")
		op := &triangles{comm: comm, n: in.N}
		out := reduction[*matrix.Dense]{comm: comm, route: cs.route(dom.id), tags: factorTags, op: op}.run(leaf.r)
		tq = treeQ{log: op.log, sentTo: out.sentTo, sentTag: out.sentTag}
		if me == 0 {
			res.R = out.state
		}
		combineDone()
	}

	if cfg.WantQ {
		qDone := ctx.Phase("tsqr.build_q")
		res.QLocal = buildQ(comm, in, dom, leaf, tq)
		qDone()
	}
	if cfg.KeepFactors {
		if !ctx.HasData() {
			panic("core: KeepFactors requires data mode")
		}
		if leaf.domComm != nil {
			panic("core: KeepFactors requires one domain per process")
		}
		res.Q = &ImplicitQ{treeQ: tq, n: in.N, offsets: in.Offsets, leaf: leaf,
			root: l.domains[cs.rootDom].leader()}
	}
	return res
}

// triangles is TSQR's operator: the state is an n×n upper triangle (nil
// in a cost-only world), packed on the wire, and two combine by the QR
// of one stacked on the other, in place: mine becomes R, the triangle
// recv unpacked becomes the merge's V and goes into the log. It keeps
// the merges it made — the tree's orthogonal factor is read off them
// (treeq.go).
type triangles struct {
	comm *mpi.Comm
	n    int
	log  []mergeRec
	// merged, when set, sees each merge right after it happened: CAQR
	// sends the trailing rows through it there and then.
	merged func(mergeRec)
}

// send and recv move one packed triangle. They are where the reduction
// forks between data and cost-only worlds: a cost-only world ships the
// byte count alone and receives nil. (blocks.send and blocks.recv in
// treeq.go are the same fork for dense blocks.)
func (o *triangles) send(peer, tag int, r *matrix.Dense) {
	if o.comm.Ctx().HasData() {
		o.comm.Send(peer, packTriu(r), tag)
	} else {
		o.comm.SendBytes(peer, triuBytes(o.n), tag)
	}
}

func (o *triangles) recv(peer, tag int) *matrix.Dense {
	buf := o.comm.Recv(peer, tag)
	if !o.comm.Ctx().HasData() {
		return nil
	}
	return unpackTriu(buf, o.n)
}

func (o *triangles) absorb(mine, theirs *matrix.Dense, st step) *matrix.Dense {
	rec := mergeRec{partner: st.peer, tag: st.tag}
	if theirs != nil {
		rec.v, rec.tau = theirs, make([]float64, o.n)
		lapack.StackQRInPlace(mine, rec.v, rec.tau)
	}
	o.comm.Ctx().ChargeKernel("stack_qr", flops.StackQR(o.n), o.n)
	o.log = append(o.log, rec)
	if o.merged != nil {
		o.merged(rec)
	}
	return mine
}

// checkTall panics unless dom's rows can hold an N×N triangle. Every rank
// checks its own domain's height; collectively that covers all domains
// (checking the whole decomposition per rank would cost O(domains) at
// every rank — quadratic work at scale).
func (in Input) checkTall(dom domain) {
	if rows := in.Offsets[dom.ranks[len(dom.ranks)-1]+1] - in.Offsets[dom.leader()]; rows < in.N {
		panic(fmt.Sprintf("core: domain %d has %d rows < N=%d (matrix not tall enough for this decomposition)",
			dom.id, rows, in.N))
	}
}

// leafState is what the leaf factorization leaves behind for Q
// construction.
type leafState struct {
	r *matrix.Dense // leader only, data mode only

	// Single-process domains, when Q was asked for: the implicit Q of the
	// blocked leaf (reflectors stay in place in Input.Local).
	q *lapack.FoldQ

	// Multi-process domains: the domain communicator and distributed
	// factorization.
	domComm *mpi.Comm
	slf     *scalapack.Factorization
}

// factorLeaf computes this domain's R factor: the cache-blocked fold
// (lapack.FoldQR — sequential TSQR over row blocks when the leaf's shape
// makes that pay, else one Dgeqrf) for single-process domains, a
// ScaLAPACK call on the domain communicator otherwise (the paper's
// Section III). The simulator is charged one GEQRF over the whole leaf
// whatever the data-mode kernel does; the blocks' GEQRFs and merges sum
// to exactly that count.
func factorLeaf(comm *mpi.Comm, in Input, dom domain, cfg Config) leafState {
	ctx := comm.Ctx()
	if len(dom.ranks) == 1 {
		st := leafState{}
		myRows := in.Offsets[comm.Rank()+1] - in.Offsets[comm.Rank()]
		if ctx.HasData() {
			st.r, st.q = lapack.FoldQR(in.Local, cfg.NB, cfg.WantQ || cfg.KeepFactors)
		}
		ctx.ChargeKernel("geqrf", flops.GEQRF(myRows, in.N), in.N)
		return st
	}
	// Multi-process domain: split off a communicator and call ScaLAPACK.
	members := append([]int(nil), dom.ranks...)
	domComm := comm.Sub(members, fmt.Sprintf("dom%d", dom.id))
	base := in.Offsets[dom.ranks[0]]
	offsets := make([]int, len(dom.ranks)+1)
	for i, rk := range dom.ranks {
		offsets[i] = in.Offsets[rk] - base
	}
	offsets[len(dom.ranks)] = in.Offsets[dom.ranks[len(dom.ranks)-1]+1] - base
	slIn := scalapack.Input{
		M: offsets[len(dom.ranks)], N: in.N,
		Offsets: offsets,
		Local:   in.Local,
	}
	f := scalapack.PDGEQR2(domComm, slIn)
	return leafState{r: f.R, domComm: domComm, slf: f}
}

// buildQ performs the backward pass of TSQR Q construction: the identity
// at the tree root is scattered down the tree — each merge node splits
// its n×n seed into a top block (kept) and a bottom block (sent to the
// domain whose R was absorbed there) — and every leaf expands its seed
// through the leaf factorization's implicit Q into its rows of the
// explicit Q factor.
func buildQ(comm *mpi.Comm, in Input, dom domain, leaf leafState, tq treeQ) *matrix.Dense {
	ctx := comm.Ctx()
	n := in.N
	me := comm.Rank()
	var seed *matrix.Dense
	if me == dom.leader() {
		if tq.sentTag < 0 && ctx.HasData() {
			seed = matrix.Eye(n)
		}
		seed = tq.scatter(blocks{comm, n, n, qTagBase}, seed, flops.StackQRApplyQ(n))
	}
	// Expand the seed through the leaf's implicit Q. The charge is the
	// structured cost of the paper's Table II (the Q pass mirrors the
	// factorization pass), independent of how the data-mode apply is
	// performed.
	if leaf.domComm != nil {
		return scalapack.ApplyQTop(leaf.domComm, leaf.slf, seed)
	}
	myRows := in.Offsets[me+1] - in.Offsets[me]
	ctx.ChargeKernel("orgqr", flops.ORGQR(myRows, n), n)
	if !ctx.HasData() {
		return nil
	}
	return leaf.q.Expand(seed)
}
