package core

import (
	"fmt"

	"gridqr/internal/blas"
	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// CAQR is the Communication-Avoiding QR factorization of a general
// (not necessarily tall-and-skinny) matrix: TSQR is used as the panel
// factorization and the trailing matrix is updated through the same
// reduction tree — the extension the paper's Section VI announces
// ("we plan to extend this work to the QR factorization of general
// matrices"). The update exchanges each merge's top block rows, so the
// inter-cluster message count per panel stays O(1) instead of O(N).
//
// The current implementation computes R only (each rank keeps its rows of
// the implicit factorization), uses one domain per process, and requires
// every rank's row block to be a multiple of the panel width so panel
// boundaries align with rank boundaries.

// CAQRConfig controls the factorization.
type CAQRConfig struct {
	// NB is the panel width (0 = lapack.DefaultBlock).
	NB int
	// WantQ additionally builds the explicit thin Q factor (data mode
	// only), distributed over the row blocks.
	WantQ bool
}

// CAQRResult holds the outcome.
type CAQRResult struct {
	// R is the N×N upper triangular factor, gathered on world rank 0
	// (nil elsewhere and in cost-only mode).
	R *matrix.Dense
	// QLocal is this rank's row block of the explicit M×N Q factor when
	// CAQRConfig.WantQ is set.
	QLocal *matrix.Dense
	// Panels is the number of panel iterations performed.
	Panels int
}

// CAQRFactorize runs CAQR on a world-spanning communicator. Input.Local
// is overwritten. M ≥ N is required.
func CAQRFactorize(comm *mpi.Comm, in Input, cfg CAQRConfig) *CAQRResult {
	in.validate(comm)
	nb := cfg.NB
	if nb <= 0 {
		nb = lapack.DefaultBlock
	}
	if in.M < in.N {
		panic("core: CAQR requires M >= N")
	}
	p := comm.Size()
	for r := 0; r < p; r++ {
		if rows := in.Offsets[r+1] - in.Offsets[r]; rows%nb != 0 {
			panic(fmt.Sprintf("core: CAQR needs row blocks divisible by NB=%d (rank %d has %d)",
				nb, r, rows))
		}
	}
	ctx := comm.Ctx()
	me := comm.Rank()
	myOff, myEnd := in.Offsets[me], in.Offsets[me+1]
	res := &CAQRResult{}
	if cfg.WantQ && !ctx.HasData() {
		panic("core: CAQR WantQ requires data mode")
	}
	var recs []caqrPanelRec

	for j := 0; j < in.N; j += nb {
		jb := min(nb, in.N-j)
		res.Panels++
		// Active ranks own rows >= j; the first active rank roots the
		// panel tree and ends up with rows [j, j+jb) of R.
		var active []int
		for r := 0; r < p; r++ {
			if in.Offsets[r+1] > j {
				active = append(active, r)
			}
		}
		if myEnd <= j {
			continue // my rows are fully factored
		}
		lo := max(0, j-myOff)
		rows := myEnd - max(myOff, j)
		rest := in.N - j - jb

		// --- Leaf: factor my panel rows and update my trailing rows ---
		var panel, trail *matrix.Dense
		var tau []float64
		if ctx.HasData() {
			panel = in.Local.View(lo, j, rows, jb)
			tau = make([]float64, jb)
			lapack.Dgeqrf(panel, tau, 0)
			if rest > 0 {
				trail = in.Local.View(lo, j+jb, rows, rest)
				// Forward path: a fixed block width, so R's bits do not
				// move with lapack's block-reflector rule.
				lapack.Dormqr(blas.Trans, panel, tau, trail, lapack.DefaultBlock)
			}
		}
		rec := caqrPanelRec{j: j, jb: jb, lo: lo, rows: rows, tau: tau, sentTag: -1}
		ctx.Charge(flops.GEQRF(rows, jb), jb)
		if rest > 0 {
			ctx.Charge(flops.ORMQR(rows, rest, jb), jb)
		}

		// --- Reduction tree over the active ranks, grid-tuned ---
		sched := clusterBinomial(active, comm.ClusterOf)
		panelIdx := j / nb
		var r *matrix.Dense
		if ctx.HasData() {
			r = lapack.TriuCopy(panel).View(0, 0, jb, jb).Clone()
		}
		sent := false
		for tag, mrg := range sched {
			switch {
			case mrg.dst == me:
				var mv *matrix.Dense
				var mtau []float64
				r, mv, mtau = caqrAbsorb(comm, in, ctx, r, panelIdx, j, jb, rest, lo, mrg.src, tag)
				rec.log = append(rec.log, mergeRec{v: mv, tau: mtau, partner: mrg.src, tag: tag})
			case mrg.src == me:
				caqrContribute(comm, in, ctx, r, panelIdx, j, jb, rest, lo, mrg.dst, tag)
				rec.sentTo, rec.sentTag = mrg.dst, tag
				sent = true
			}
			if sent {
				break // my panel rows are final for this panel
			}
		}
		if cfg.WantQ {
			recs = append(recs, rec)
		}
		// The tree root (the rank owning global row j) holds the final
		// panel R: write it into the local block so R assembly finds it.
		if !sent && me == active[0] && ctx.HasData() {
			lapack.Dlacpy(lapack.CopyUpper, r, in.Local.View(lo, j, jb, jb))
		}
	}
	res.R = caqrGatherR(comm, in)
	if cfg.WantQ {
		res.QLocal = caqrBuildQ(comm, in, recs)
	}
	return res
}

// caqrPanelRec remembers one panel's transformation on this rank, for the
// explicit-Q pass: the leaf reflectors live in Input.Local (columns
// j..j+jb below the diagonal) with their taus here, plus the merges this
// rank absorbed and the one send that retired its panel rows.
type caqrPanelRec struct {
	j, jb, lo, rows int
	tau             []float64
	log             []mergeRec
	sentTo, sentTag int
}

// caqrMergeTags spaces the per-panel tag ranges; a matrix has at most
// N/nb + 1 panels and each panel at most P merges.
const caqrTagStride = 1 << 14

// caqrAbsorb handles the dst side of one merge: receive the partner's R
// and trailing top rows, fold them in, send the updated rows back. The
// merge's implicit Q (v, tau) is returned for the explicit-Q pass.
func caqrAbsorb(comm *mpi.Comm, in Input, ctx *mpi.Ctx, r *matrix.Dense,
	panelIdx, j, jb, rest, lo, src, tag int) (*matrix.Dense, *matrix.Dense, []float64) {
	base := rTagBase + panelIdx*caqrTagStride + 2*tag
	if !ctx.HasData() {
		comm.Recv(src, base)
		ctx.Charge(flops.StackQR(jb), jb)
		if rest > 0 {
			comm.Recv(src, base+1)
			comm.SendBytes(src, 8*float64(jb*rest), base+1)
			ctx.Charge(flops.StackApply(jb, rest), jb)
		}
		return nil, nil, nil
	}
	rOther := unpackTriu(comm.Recv(src, base), jb)
	newR, v, tauM := lapack.StackQR(r, rOther)
	ctx.Charge(flops.StackQR(jb), jb)
	if rest > 0 {
		otherTop := matrix.FromColMajor(jb, rest, comm.Recv(src, base+1))
		myTop := in.Local.View(lo, j+jb, jb, rest)
		lapack.ApplyStackQ(v, tauM, true, myTop, otherTop)
		ctx.Charge(flops.StackApply(jb, rest), jb)
		comm.Send(src, otherTop.Data, base+1)
	}
	return newR, v, tauM
}

// caqrContribute handles the src side: ship R and trailing top rows to
// the absorber, then write the returned updated rows back in place.
func caqrContribute(comm *mpi.Comm, in Input, ctx *mpi.Ctx, r *matrix.Dense,
	panelIdx, j, jb, rest, lo, dst, tag int) {
	base := rTagBase + panelIdx*caqrTagStride + 2*tag
	if !ctx.HasData() {
		comm.SendBytes(dst, triuBytes(jb), base)
		if rest > 0 {
			comm.SendBytes(dst, 8*float64(jb*rest), base+1)
			comm.Recv(dst, base+1)
		}
		return
	}
	comm.Send(dst, packTriu(r), base)
	if rest > 0 {
		myTop := in.Local.View(lo, j+jb, jb, rest)
		comm.Send(dst, myTop.Clone().Data, base+1)
		back := matrix.FromColMajor(jb, rest, comm.Recv(dst, base+1))
		matrix.Copy(myTop, back)
	}
}

// caqrGatherR assembles the final R on rank 0: each rank owns the R rows
// that ended at the roots of the panels it led. After the panel loop,
// global row i of R (i < N) lives on the rank whose block contains row i,
// in the local row i−offset, columns i..N — exactly like the ScaLAPACK
// layout, so the same gather applies.
func caqrGatherR(comm *mpi.Comm, in Input) *matrix.Dense {
	if !comm.Ctx().HasData() {
		return nil
	}
	const tagR = 1<<20 + 7
	n := in.N
	me := comm.Rank()
	myOff, myEnd := in.Offsets[me], in.Offsets[me+1]
	if me != 0 {
		if myOff < n {
			rows := min(myEnd, n) - myOff
			buf := make([]float64, 0, rows*n)
			for i := 0; i < rows; i++ {
				g := myOff + i
				for k := g; k < n; k++ {
					buf = append(buf, in.Local.At(i, k))
				}
			}
			comm.Send(0, buf, tagR)
		}
		return nil
	}
	r := matrix.New(n, n)
	for i := 0; i < min(myEnd, n); i++ {
		for k := i; k < n; k++ {
			r.Set(i, k, in.Local.At(i, k))
		}
	}
	for src := 1; src < comm.Size(); src++ {
		off, end := in.Offsets[src], in.Offsets[src+1]
		if off >= n {
			break
		}
		buf := comm.Recv(src, tagR)
		idx := 0
		for i := 0; i < min(end, n)-off; i++ {
			g := off + i
			for k := g; k < n; k++ {
				r.Set(g, k, buf[idx])
				idx++
			}
		}
	}
	return r
}
