package core

import (
	"fmt"

	"gridqr/internal/blas"
	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
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
	if in.M < in.N {
		panic("core: CAQR requires M >= N")
	}
	nb := in.panelWidth(cfg.NB)
	if comm.Size() > caqrMaxProcs || in.N > nb*caqrMaxPanels {
		panic(fmt.Sprintf("core: CAQR supports at most %d processes and %d panels", caqrMaxProcs, caqrMaxPanels))
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
		active := in.activeRanks(j)
		if myEnd <= j {
			continue // my rows are fully factored
		}
		lo := max(0, j-myOff)
		rows := myEnd - max(myOff, j)
		rest := in.N - j - jb

		// --- Leaf: factor my panel rows and update my trailing rows ---
		rec := caqrPanelRec{idx: j / nb, j: j, jb: jb, lo: lo, rows: rows}
		var r, top *matrix.Dense // my panel triangle; my first jb trailing rows
		if ctx.HasData() {
			panel := in.Local.View(lo, j, rows, jb)
			rec.tau = make([]float64, jb)
			lapack.Dgeqrf(panel, rec.tau, 0)
			if rest > 0 {
				trail := in.Local.View(lo, j+jb, rows, rest)
				// Forward path: a fixed block width, so R's bits do not
				// move with lapack's block-reflector rule.
				lapack.Dormqr(blas.Trans, panel, rec.tau, trail, lapack.DefaultBlock)
				top = trail.View(0, 0, jb, rest)
			}
			r = lapack.TriuCopy(panel).View(0, 0, jb, jb).Clone()
		}
		ctx.Charge(flops.GEQRF(rows, jb), jb)
		if rest > 0 {
			ctx.Charge(flops.ORMQR(rows, rest, jb), jb)
		}

		// --- The panel is a TSQR reduction over the active ranks on the
		// grid-tuned tree, plus the tree's Qᵀ on the trailing tops: the
		// absorber's round trip right after each merge, mine right after
		// my hand-over. The result stays on the tree root (no delivery).
		tags := tagSpace{base: rTagBase + rec.idx*caqrTagStride}
		tops := blocks{comm, jb, rest, tags.base + caqrTagStride/2}
		op := &triangles{comm: comm, n: jb}
		if rest > 0 {
			op.merged = func(m mergeRec) { tops.absorb(m, true, top) }
		}
		steps := stepsFor(ckptMerges(clusterBinomial(active, comm.ClusterOf), nil), me)
		out := reduction[*matrix.Dense]{comm: comm, route: route{steps: steps}, tags: tags, op: op}.run(r)
		rec.treeQ = treeQ{log: op.log, sentTo: out.sentTo, sentTag: out.sentTag}
		if rest > 0 && out.absorbed {
			tops.contribute(out.sentTo, out.sentTag, top)
		}
		if cfg.WantQ {
			recs = append(recs, rec)
		}
		// The tree root (the rank owning global row j) holds the final
		// panel R: write it into the local block so R assembly finds it.
		if !out.absorbed && ctx.HasData() {
			lapack.Dlacpy(lapack.CopyUpper, out.state, in.Local.View(lo, j, jb, jb))
		}
	}
	// Global row i of R (i < N) now lives on the rank whose block contains
	// row i, in columns i..N — ScaLAPACK's layout, so its gather applies.
	res.R = scalapack.ExtractR(comm, scalapack.Input(in))
	if cfg.WantQ {
		res.QLocal = caqrBuildQ(comm, in, recs)
	}
	return res
}

// caqrPanelRec remembers one panel's transformation on this rank, for the
// explicit-Q pass: the leaf reflectors live in Input.Local (columns
// j..j+jb below the diagonal) with their taus here, plus this rank's
// share of the panel tree's Q.
type caqrPanelRec struct {
	treeQ
	idx, j, jb, lo, rows int
	tau                  []float64
}
