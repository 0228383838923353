package core

import (
	"fmt"
	"sort"

	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// Fault-tolerant TSQR. The R-factor reduction is an associative combine
// of upper triangles (Langou, arXiv:1002.4250: exactly an MPI_Reduce), so
// a dead rank can be routed around: the survivors re-form the binomial
// reduction tree over the live set and redo only the combine steps whose
// results were lost with the dead ranks — everything a survivor already
// computed is served from a local cache keyed by the set of leaf
// contributions it covers.
//
// Protocol. Rank 0 coordinates. Execution proceeds in epochs; in each
// epoch the live ranks run one deterministic reduction tree (binomial
// within each cluster, then across cluster roots — the paper's grid
// tree). A rank that observes a failure (typed RankFailedError from the
// transport, or a receive timeout) stops combining and propagates an
// abort report up the tree on the very tags its ancestors already await,
// so no rank ever blocks on a decision. After its own tree role completes
// the coordinator concludes the epoch with a control message to every
// epoch participant: DONE, CONTINUE with the grown dead set, or a typed
// abort (too many failures / unrecoverable data loss). Each non-terminal
// epoch strictly grows the dead set, so the protocol finishes within P
// epochs and never hangs.
//
// Data safety. Each rank replicates its leaf R to a buddy, rank
// (me+1) mod P, before the first epoch. When a rank dies, its buddy
// re-contributes the copy at the next epoch's leaf level. A dead rank
// whose buddy is also dead (or never received the copy) makes the input
// unrecoverable: the run aborts with FTDataLost.

// Control statuses and tree payload codes.
const (
	ctrlDone = iota
	ctrlContinue
	ctrlTooMany
	ctrlDataLost
)
const (
	payloadData = iota
	payloadAbort
)

// FTReason classifies why fault-tolerant TSQR gave up.
type FTReason int

const (
	// FTTooManyFailures: more ranks died than Config.FT.MaxFailures.
	FTTooManyFailures FTReason = iota
	// FTDataLost: a dead rank's leaf data is unrecoverable (its buddy
	// replica is dead too, or the replica never arrived).
	FTDataLost
	// FTCoordinatorLost: rank 0, the recovery coordinator, died.
	FTCoordinatorLost
	// FTEvicted: this rank was declared dead by the coordinator (a
	// receive from it timed out) while actually alive; it withdraws.
	FTEvicted
	// FTInternal: the protocol failed to converge (a bug, not a fault).
	FTInternal
)

func (r FTReason) String() string {
	switch r {
	case FTTooManyFailures:
		return "too many failures"
	case FTDataLost:
		return "leaf data lost"
	case FTCoordinatorLost:
		return "coordinator lost"
	case FTEvicted:
		return "rank evicted"
	default:
		return "internal protocol error"
	}
}

// FTError is the typed abort of fault-tolerant TSQR: the factorization
// could not complete, and why.
type FTError struct {
	Reason FTReason
	Dead   []int // ranks reported dead when the run aborted
	Lost   []int // ranks whose leaf data is unrecoverable (FTDataLost)
}

func (e *FTError) Error() string {
	s := fmt.Sprintf("core: fault-tolerant TSQR aborted: %s", e.Reason)
	if len(e.Dead) > 0 {
		s += fmt.Sprintf(" (dead ranks %v)", e.Dead)
	}
	if len(e.Lost) > 0 {
		s += fmt.Sprintf(" (lost leaves %v)", e.Lost)
	}
	return s
}

// FTStats instruments a fault-tolerant run.
type FTStats struct {
	Epochs         int   // reduction attempts, 1 = fault-free
	Combines       int   // stacked-triangle QRs actually computed
	CombinesReused int   // combines served from the survivor cache
	Dead           []int // ranks reported dead over the run
}

// FTResult is the output of FactorizeFT.
type FTResult struct {
	// R is the N×N upper triangular factor, on world rank 0 only.
	R *matrix.Dense
	// Stats describes this rank's view of the recovery work.
	Stats FTStats
}

// ftState is one rank's mutable protocol state, and the operator its
// epochs reduce with.
type ftState struct {
	comm  *mpi.Comm
	n     int
	p, me int
	leafR *matrix.Dense
	// buddyCopy is the predecessor's replicated leaf R (nil if it never
	// arrived).
	buddyCopy *matrix.Dense
	// cache maps a sorted contributor-id set to its combined R, so a
	// re-formed tree redoes only combines that were actually lost.
	cache map[string]*matrix.Dense
	stats FTStats
}

// ftPartial is the state an epoch reduces: the partial R over a set of
// leaf contributions or, once a failure was seen anywhere below, the
// abort report that travels up in its place on the same tags.
type ftPartial struct {
	r          *matrix.Dense
	set        []int // sorted ids of the leaves r covers
	aborted    bool
	dead, lost []int // newly dead ranks; ranks whose leaf is unrecoverable
}

// FactorizeFT runs TSQR with failure recovery under the protocol above.
// It requires data mode and one domain per process. With cfg.FT.Enabled
// false it simply delegates to Factorize (no recovery, no overhead). On
// world rank 0 the result carries R; any abort is a typed *FTError, on
// every surviving rank.
func FactorizeFT(comm *mpi.Comm, in Input, cfg Config) (*FTResult, error) {
	if !cfg.FT.Enabled {
		res := Factorize(comm, in, cfg)
		return &FTResult{R: res.R, Stats: FTStats{Epochs: 1}}, nil
	}
	in.validate(comm)
	ctx := comm.Ctx()
	if !ctx.HasData() {
		panic("core: FactorizeFT requires data mode")
	}
	if cfg.DomainsPerCluster != 0 {
		panic("core: FactorizeFT requires one domain per process (DomainsPerCluster = 0)")
	}
	p, me := comm.Size(), comm.Rank()
	if p > ftMergeSpan {
		panic(fmt.Sprintf("core: FactorizeFT supports at most %d processes", ftMergeSpan))
	}
	maxFail := cfg.FT.MaxFailures
	if maxFail <= 0 {
		maxFail = (p - 1) / 2
	}

	// Leaf factorization: the kernel of Factorize's single-process
	// domains, R only.
	myRows := in.Offsets[me+1] - in.Offsets[me]
	var leafR *matrix.Dense
	ctx.Kernel("compute", flops.GEQRF(myRows, in.N), in.N, func() {
		leafR, _ = lapack.FoldQR(in.Local, cfg.NB, false)
	})

	st := &ftState{comm: comm, n: in.N, p: p, me: me, leafR: leafR,
		cache: map[string]*matrix.Dense{}}
	if p == 1 {
		st.stats.Epochs = 1
		return &FTResult{R: leafR, Stats: st.stats}, nil
	}

	// Buddy replication of the leaf R before any fault can strike the
	// reduction. A failed send or receive here is tolerated: the copy is
	// only needed if the predecessor later dies.
	_ = comm.TrySend((me+1)%p, packTriu(leafR), ftLeafCopyTag)
	if buf, err := comm.TryRecv((me+p-1)%p, ftLeafCopyTag); err == nil {
		st.buddyCopy = unpackTriu(buf, in.N)
	}

	knownDead := map[int]bool{}
	for epoch := 0; epoch <= p; epoch++ {
		st.stats.Epochs = epoch + 1
		res, err, again := st.runEpoch(epoch, knownDead, maxFail)
		if !again {
			return res, err
		}
	}
	return nil, &FTError{Reason: FTInternal, Dead: sortedKeys(knownDead)}
}

// runEpoch executes one reduction attempt over the ranks not in
// knownDead. again=true means the coordinator ordered another epoch with
// a grown knownDead (updated in place).
func (st *ftState) runEpoch(epoch int, knownDead map[int]bool, maxFail int) (res *FTResult, err error, again bool) {
	live := make([]int, 0, st.p)
	for r := 0; r < st.p; r++ {
		if !knownDead[r] {
			live = append(live, r)
		}
	}

	// Start from my leaf; if my predecessor is dead I act for it too,
	// re-contributing its replicated leaf. Merges consume their operands
	// and a later epoch starts from the same two, so both go in as
	// copies.
	mine := ftPartial{r: st.leafR.Clone(), set: []int{st.me}}
	if pred := (st.me + st.p - 1) % st.p; knownDead[pred] {
		if st.buddyCopy == nil {
			mine.lost, mine.aborted = []int{pred}, true
		} else {
			mine = st.absorb(mine, ftPartial{r: st.buddyCopy.Clone(), set: []int{pred}}, step{})
		}
	}

	// Tree phase: the paper's grid-tuned shape re-formed over the
	// survivors, rooted at live[0] — rank 0 whenever the coordinator is
	// alive, so there is no delivery hop. Every rank completes its full
	// role: failed or aborted subtrees turn data messages into abort
	// reports on the same tags, so ancestors never block on a missing
	// decision.
	steps := stepsFor(ckptMerges(clusterBinomial(live, st.comm.ClusterOf), nil), st.me)
	mine = reduction[ftPartial]{comm: st.comm, route: route{steps: steps},
		tags: tagSpace{base: ftDataBase + epoch*ftMergeSpan}, op: st}.run(mine).state

	// Epoch conclusion. The coordinator decides; everyone else waits for
	// the decision.
	var status int
	var deadList, lostList []int
	if st.me == 0 {
		for _, d := range mine.dead {
			knownDead[d] = true
		}
		deadList, lostList = sortedKeys(knownDead), mine.lost
		status = ctrlContinue
		switch {
		case !mine.aborted:
			status = ctrlDone
		case len(deadList) > maxFail:
			status = ctrlTooMany
		default:
			// A dead rank is recoverable only through its live buddy.
			for _, d := range deadList {
				if knownDead[(d+1)%st.p] {
					lostList = append(lostList, d)
				}
			}
			sort.Ints(lostList)
			if len(lostList) > 0 {
				status = ctrlDataLost
			}
		}
		ctrl := encodeLists(status, deadList, lostList)
		for _, r := range live {
			if r != 0 {
				_ = st.comm.TrySend(r, ctrl, ftCtrlBase+epoch)
			}
		}
	} else {
		buf, cerr := st.comm.TryRecv(0, ftCtrlBase+epoch)
		if cerr != nil {
			return nil, &FTError{Reason: FTCoordinatorLost, Dead: sortedKeys(knownDead)}, false
		}
		status, deadList, lostList = decodeLists(buf)
	}
	st.stats.Dead = deadList
	switch status {
	case ctrlDone:
		res = &FTResult{Stats: st.stats}
		if st.me == 0 {
			res.R = mine.r
		}
		return res, nil, false
	case ctrlTooMany:
		return nil, &FTError{Reason: FTTooManyFailures, Dead: deadList}, false
	case ctrlDataLost:
		return nil, &FTError{Reason: FTDataLost, Dead: deadList, Lost: lostList}, false
	}
	for _, d := range deadList {
		if d == st.me {
			// The coordinator evicted me (a receive from me timed out);
			// my leaf continues through my buddy. Withdraw cleanly.
			return nil, &FTError{Reason: FTEvicted, Dead: deadList}, false
		}
		knownDead[d] = true
	}
	return nil, nil, true
}

// The operator. Tree messages are [code, ...]: a data payload carries the
// contributor set and then the packed triangle, an abort report the
// newly dead and the unrecoverable ranks as encodeLists writes them.

// send hands my partial R, or the abort report that replaced it, to my
// absorber. A failed send (every delivery attempt dropped) is left to
// the receiver's timeout: it will evict me and recover.
func (st *ftState) send(peer, tag int, s ftPartial) {
	var buf []float64
	if s.aborted {
		buf = encodeLists(payloadAbort, s.dead, s.lost)
	} else {
		buf = append(make([]float64, 0, 2+len(s.set)+st.n*(st.n+1)/2), payloadData, float64(len(s.set)))
		for _, id := range s.set {
			buf = append(buf, float64(id))
		}
		buf = append(buf, packTriu(s.r)...)
	}
	_ = st.comm.TrySend(peer, buf, tag)
}

// recv takes a contributor's message; a receive that fails is the report
// that the contributor is dead.
func (st *ftState) recv(peer, tag int) ftPartial {
	buf, err := st.comm.TryRecv(peer, tag)
	if err != nil {
		return ftPartial{aborted: true, dead: []int{peer}}
	}
	if int(buf[0]) == payloadAbort {
		_, dead, lost := decodeLists(buf)
		return ftPartial{aborted: true, dead: dead, lost: lost}
	}
	set := make([]int, int(buf[1]))
	for i := range set {
		set[i] = int(buf[2+i])
	}
	return ftPartial{r: unpackTriu(buf[2+len(set):], st.n), set: set}
}

// absorb merges another partial R into mine, serving repeated combines
// from the cache: after a failure only the combines lost with the dead
// ranks are recomputed. An abort report is merged as one; once the epoch
// has failed, data is drained and discarded.
func (st *ftState) absorb(mine, theirs ftPartial, _ step) ftPartial {
	if theirs.aborted {
		mine.dead, mine.lost = sortedUnion(mine.dead, theirs.dead), sortedUnion(mine.lost, theirs.lost)
		mine.aborted = true
	}
	if mine.aborted {
		return mine
	}
	mine.set = sortedUnion(mine.set, theirs.set)
	key := fmt.Sprint(mine.set)
	if r, ok := st.cache[key]; ok {
		st.stats.CombinesReused++
		mine.r = r.Clone() // the next merge overwrites it
		return mine
	}
	// The merge itself is TSQR's operator's, its log dropped: R only.
	mine.r = (&triangles{comm: st.comm, n: st.n}).absorb(mine.r, theirs.r, step{})
	st.stats.Combines++
	st.cache[key] = mine.r.Clone()
	return mine
}

// encodeLists and decodeLists are the wire form of an abort report and of
// the coordinator's control message: [head, len, dead..., len, lost...],
// head being payloadAbort or the control status.
func encodeLists(head int, dead, lost []int) []float64 {
	buf := append(make([]float64, 0, 3+len(dead)+len(lost)), float64(head))
	for _, list := range [][]int{dead, lost} {
		buf = append(buf, float64(len(list)))
		for _, r := range list {
			buf = append(buf, float64(r))
		}
	}
	return buf
}

func decodeLists(buf []float64) (head int, dead, lost []int) {
	var lists [2][]int
	at := 1
	for i := range lists {
		k := int(buf[at])
		for _, v := range buf[at+1 : at+1+k] {
			lists[i] = append(lists[i], int(v))
		}
		at += 1 + k
	}
	return int(buf[0]), lists[0], lists[1]
}

// sortedUnion merges two sorted, disjoint id lists.
func sortedUnion(a, b []int) []int {
	out := append(append(make([]int, 0, len(a)+len(b)), a...), b...)
	sort.Ints(out)
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
