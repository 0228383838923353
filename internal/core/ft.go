package core

import (
	"fmt"
	"sort"
	"strings"

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

// Reserved tag bases for the FT protocol; they sit far above the forward
// and backward TSQR tag spaces of tsqr.go.
const (
	ftLeafCopyTag = 1 << 26 // one-time buddy replication of the leaf R
	ftCtrlBase    = 1 << 27 // + epoch: coordinator's end-of-epoch control
	ftDataBase    = 1 << 28 // + epoch*ftMergeSpan + merge index: tree data
	ftMergeSpan   = 4096    // max merges per epoch (bounds P)
)

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

// ftState is one rank's mutable protocol state.
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
		panic("core: FactorizeFT supports at most 4096 processes")
	}
	maxFail := cfg.FT.MaxFailures
	if maxFail <= 0 {
		maxFail = (p - 1) / 2
	}

	// Leaf factorization: the kernel of Factorize's single-process
	// domains, R only.
	myRows := in.Offsets[me+1] - in.Offsets[me]
	leafR, _ := lapack.FoldQR(in.Local, cfg.NB, cfg.Recursive, false)
	ctx.Charge(flops.GEQRF(myRows, in.N), in.N)

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
	// The paper's grid-tuned shape, re-formed over the survivors. The
	// root is live[0] — rank 0 whenever the coordinator is alive.
	sched := clusterBinomial(live, st.comm.ClusterOf)

	// Start from my leaf; if my predecessor is dead I act for it too,
	// re-contributing its replicated leaf.
	acc, set := st.leafR, []int{st.me}
	aborted := false
	newDead := map[int]bool{}
	lost := map[int]bool{}
	pred := (st.me + st.p - 1) % st.p
	if knownDead[pred] {
		if st.buddyCopy == nil {
			lost[pred] = true
			aborted = true
		} else {
			acc, set = st.combine(acc, set, st.buddyCopy, []int{pred})
		}
	}

	// Tree phase. Every rank completes its full role: failed or aborted
	// subtrees turn data messages into abort reports on the same tags, so
	// ancestors never block on a missing decision.
	for idx, m := range sched {
		tag := ftDataBase + epoch*ftMergeSpan + idx
		switch st.me {
		case m.dst:
			buf, rerr := st.comm.TryRecv(m.src, tag)
			if rerr != nil {
				newDead[m.src] = true
				aborted = true
				continue
			}
			switch int(buf[0]) {
			case payloadAbort:
				d, l := decodeAbort(buf)
				for _, r := range d {
					newDead[r] = true
				}
				for _, r := range l {
					lost[r] = true
				}
				aborted = true
			case payloadData:
				if aborted {
					continue // epoch already failed; drain and discard
				}
				otherSet, otherR := decodeData(buf, st.n)
				acc, set = st.combine(acc, set, otherR, otherSet)
			}
		case m.src:
			var payload []float64
			if aborted {
				payload = encodeAbort(newDead, lost)
			} else {
				payload = encodeData(set, acc)
			}
			// A failed send (every delivery attempt dropped) is left to
			// the receiver's timeout: it will evict us and recover.
			_ = st.comm.TrySend(m.dst, payload, tag)
		}
	}

	// Epoch conclusion. The coordinator decides; everyone else waits for
	// the decision.
	if st.me == 0 {
		for d := range newDead {
			knownDead[d] = true
		}
		deadList := sortedKeys(knownDead)
		st.stats.Dead = deadList
		status := ctrlContinue
		switch {
		case !aborted:
			status = ctrlDone
		case len(deadList) > maxFail:
			status = ctrlTooMany
		default:
			// A dead rank is recoverable only through its live buddy.
			for d := range knownDead {
				if knownDead[(d+1)%st.p] {
					lost[d] = true
				}
			}
			if len(lost) > 0 {
				status = ctrlDataLost
			}
		}
		lostList := sortedKeys(lost)
		ctrl := encodeCtrl(status, deadList, lostList)
		for _, r := range live {
			if r != 0 {
				_ = st.comm.TrySend(r, ctrl, ftCtrlBase+epoch)
			}
		}
		switch status {
		case ctrlDone:
			return &FTResult{R: acc, Stats: st.stats}, nil, false
		case ctrlTooMany:
			return nil, &FTError{Reason: FTTooManyFailures, Dead: deadList}, false
		case ctrlDataLost:
			return nil, &FTError{Reason: FTDataLost, Dead: deadList, Lost: lostList}, false
		}
		return nil, nil, true
	}

	buf, cerr := st.comm.TryRecv(0, ftCtrlBase+epoch)
	if cerr != nil {
		return nil, &FTError{Reason: FTCoordinatorLost, Dead: sortedKeys(knownDead)}, false
	}
	status, deadList, lostList := decodeCtrl(buf)
	st.stats.Dead = deadList
	switch status {
	case ctrlDone:
		return &FTResult{Stats: st.stats}, nil, false
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

// combine merges another partial R (covering otherSet) into acc (covering
// set), serving repeated combines from the cache: after a failure only
// the combines lost with the dead ranks are recomputed.
func (st *ftState) combine(acc *matrix.Dense, set []int, other *matrix.Dense, otherSet []int) (*matrix.Dense, []int) {
	union := mergeSorted(set, otherSet)
	key := setKey(union)
	if r, ok := st.cache[key]; ok {
		st.stats.CombinesReused++
		return r, union
	}
	r, _, _ := lapack.StackQR(acc, other)
	st.comm.Ctx().Charge(flops.StackQR(st.n), st.n)
	st.stats.Combines++
	st.cache[key] = r
	return r, union
}

// Payload encodings. Tree messages: [code, ...]; data payloads carry the
// contributor set then the packed triangle, abort payloads the newly dead
// and unrecoverable rank lists. Control messages: [status, dead..., lost...].

func encodeData(set []int, r *matrix.Dense) []float64 {
	buf := make([]float64, 0, 2+len(set)+len(r.Data)/2)
	buf = append(buf, payloadData, float64(len(set)))
	for _, id := range set {
		buf = append(buf, float64(id))
	}
	return append(buf, packTriu(r)...)
}

func decodeData(buf []float64, n int) ([]int, *matrix.Dense) {
	k := int(buf[1])
	set := make([]int, k)
	for i := range set {
		set[i] = int(buf[2+i])
	}
	return set, unpackTriu(buf[2+k:], n)
}

func encodeAbort(dead, lost map[int]bool) []float64 {
	buf := []float64{payloadAbort, float64(len(dead))}
	for _, d := range sortedKeys(dead) {
		buf = append(buf, float64(d))
	}
	buf = append(buf, float64(len(lost)))
	for _, l := range sortedKeys(lost) {
		buf = append(buf, float64(l))
	}
	return buf
}

func decodeAbort(buf []float64) (dead, lost []int) {
	nd := int(buf[1])
	for i := 0; i < nd; i++ {
		dead = append(dead, int(buf[2+i]))
	}
	nl := int(buf[2+nd])
	for i := 0; i < nl; i++ {
		lost = append(lost, int(buf[3+nd+i]))
	}
	return dead, lost
}

func encodeCtrl(status int, dead, lost []int) []float64 {
	buf := []float64{float64(status), float64(len(dead))}
	for _, d := range dead {
		buf = append(buf, float64(d))
	}
	buf = append(buf, float64(len(lost)))
	for _, l := range lost {
		buf = append(buf, float64(l))
	}
	return buf
}

func decodeCtrl(buf []float64) (status int, dead, lost []int) {
	d, l := decodeAbort(append([]float64{0}, buf[1:]...))
	return int(buf[0]), d, l
}

func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func setKey(set []int) string {
	var b strings.Builder
	for i, s := range set {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	return b.String()
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
