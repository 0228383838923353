// Package core implements the paper's contribution: QCG-TSQR, the Tall
// and Skinny QR factorization articulated with the grid topology.
//
// The global M×N matrix (M ≫ N) is split into P row blocks called
// domains. Each domain is factored by a call to ScaLAPACK (a group of
// processes) or LAPACK (a single process), producing an N×N triangular
// factor. The R factors are then combined pairwise — the QR factorization
// of two stacked triangles, a binary associative (and, after sign
// normalization, commutative) operation — along a reduction tree whose
// shape is tuned to the platform: binary within each geographical site,
// then binary across sites, so the number of inter-cluster messages is
// the provably minimal C−1 for C sites (paper Fig. 2) regardless of N.
//
// Alternative tree shapes (flat, topology-oblivious binary, shuffled
// binary) are provided for the ablation studies.
package core

import (
	"fmt"

	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// Tree selects the shape of the R-factor reduction tree.
type Tree int

const (
	// TreeGrid is the paper's tuned tree: binomial within each cluster,
	// then binomial across cluster roots. Inter-cluster messages: C−1.
	TreeGrid Tree = iota
	// TreeBinary is a single binomial tree over all domains in rank
	// order, ignoring topology (what a grid-unaware MPI reduce does).
	TreeBinary
	// TreeFlat merges every domain sequentially into domain 0 (the
	// out-of-core / multicore flat tree of the paper's related work).
	TreeFlat
	// TreeBinaryShuffled is a binomial tree over a deterministic random
	// permutation of the domains, modeling the paper's remark that
	// randomly distributed process ranks make the oblivious tree worse.
	TreeBinaryShuffled
	// TreeMultiLevel extends the paper's two-level tuned tree to the full
	// platform hierarchy: binomial among each node's domains (shared
	// memory), then among node roots within each cluster (site switch),
	// then among cluster roots within each continent (wide area), then
	// among continent roots (inter-continental). On single-continent
	// grids the last stage is empty and the tree pays the same C−1
	// inter-cluster messages as TreeGrid, but converts intra-site hops
	// that TreeGrid routes through the switch into intra-node hops.
	TreeMultiLevel
)

func (t Tree) String() string {
	switch t {
	case TreeGrid:
		return "grid"
	case TreeBinary:
		return "binary"
	case TreeFlat:
		return "flat"
	case TreeBinaryShuffled:
		return "binary-shuffled"
	case TreeMultiLevel:
		return "multi-level"
	default:
		return fmt.Sprintf("Tree(%d)", int(t))
	}
}

// ParseTree is String's inverse, for command-line flags.
func ParseTree(s string) (Tree, error) {
	for _, t := range []Tree{TreeGrid, TreeBinary, TreeFlat, TreeBinaryShuffled, TreeMultiLevel} {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("core: unknown tree %q (want grid, binary, flat, binary-shuffled or multi-level)", s)
}

// Config controls a QCG-TSQR run.
type Config struct {
	// DomainsPerCluster is the number of TSQR domains per geographical
	// site — the tuning knob of the paper's Figures 6 and 7. It must
	// divide each cluster's process count. Zero means one domain per
	// process (the original TSQR with LAPACK leaves); 1 means one
	// domain per cluster (one big ScaLAPACK call per site).
	DomainsPerCluster int
	// Tree selects the reduction tree shape; TreeGrid is the paper's.
	Tree Tree
	// NB is the panel width of the local blocked QR on single-process
	// domains (0 = lapack.DefaultBlock).
	NB int
	// WantQ additionally builds the explicit Q factor, distributed over
	// the processes' row blocks (paper Table II / Property 1).
	WantQ bool
	// KeepFactors retains the factored form so Result.Q can apply Qᵀ/Q
	// implicitly (half the flops of the explicit route). Requires data
	// mode and one domain per process.
	KeepFactors bool
	// Overlap selects the schedule whose cross-site transfers overlap the
	// root's merges: a flat cross-site stage on TreeGrid (every cluster
	// root sends straight to the global root, so the C−1 inter-site
	// transfers fly concurrently instead of chaining through intermediate
	// merges), nothing on other trees. Message, byte and flop totals are
	// identical either way.
	Overlap bool
	// ShuffleSeed seeds TreeBinaryShuffled's permutation.
	ShuffleSeed int64
	// FT configures fault-tolerant execution (FactorizeFT).
	FT FTOptions
}

// FTOptions controls fault-tolerant TSQR.
type FTOptions struct {
	// Enabled turns recovery on: on a partner failure the survivors
	// re-form the reduction tree over the live set and redo only the
	// lost combines. Off, FactorizeFT degenerates to plain Factorize.
	Enabled bool
	// MaxFailures is the degraded-mode threshold: when more than this
	// many ranks are reported dead the factorization aborts with a typed
	// FTError instead of recovering. 0 means (P−1)/2.
	MaxFailures int
}

// Input is one process's share of the global matrix, in the same
// row-block layout as package scalapack.
type Input struct {
	M, N    int
	Offsets []int         // per-rank first global row, len = world size + 1
	Local   *matrix.Dense // this rank's row block; nil in cost-only mode
}

// Result carries the factorization output.
type Result struct {
	// R is the N×N upper triangular factor, on world rank 0 only (nil
	// elsewhere and in cost-only mode).
	R *matrix.Dense
	// QLocal is this rank's row block of the explicit M×N Q factor when
	// Config.WantQ is set (nil otherwise and in cost-only mode).
	QLocal *matrix.Dense
	// Domains is the total number of domains used.
	Domains int
	// Q applies the orthogonal factor implicitly when Config.KeepFactors
	// was set (nil otherwise).
	Q *ImplicitQ
}

func (in Input) validate(comm *mpi.Comm) {
	p := comm.Size()
	if len(in.Offsets) != p+1 || in.Offsets[0] != 0 || in.Offsets[p] != in.M {
		panic("core: bad offsets")
	}
	if in.N < 1 {
		panic("core: empty matrix")
	}
	if comm.Ctx().HasData() {
		r := comm.Rank()
		want := in.Offsets[r+1] - in.Offsets[r]
		if in.Local == nil || in.Local.Rows != want || in.Local.Cols != in.N {
			panic(fmt.Sprintf("core: rank %d local block mismatch", r))
		}
	}
}

// activeRanks lists, in order, the ranks that still own rows at or below
// global row j: the ones a panel starting there involves.
func (in Input) activeRanks(j int) []int {
	var active []int
	for r := 0; r+1 < len(in.Offsets); r++ {
		if in.Offsets[r+1] > j {
			active = append(active, r)
		}
	}
	return active
}

// packTriu serializes the upper triangle of an n×n matrix column by
// column — triuLen(n) values, the paper's N²/2 per-message volume. A
// cost-only world's nil triangle packs to nil.
func packTriu(r *matrix.Dense) []float64 {
	if r == nil {
		return nil
	}
	n := r.Rows
	buf := make([]float64, 0, triuLen(n))
	for j := 0; j < n; j++ {
		buf = append(buf, r.Col(j)[:j+1]...)
	}
	return buf
}

// unpackTriu rebuilds an n×n upper triangular matrix from packTriu's
// serialization; nil unpacks to nil.
func unpackTriu(buf []float64, n int) *matrix.Dense {
	if buf == nil {
		return nil
	}
	r := matrix.New(n, n)
	idx := 0
	for j := 0; j < n; j++ {
		copy(r.Col(j)[:j+1], buf[idx:idx+j+1])
		idx += j + 1
	}
	return r
}

// triuLen is the packed size of an n×n triangle in floats.
func triuLen(n int) int { return n * (n + 1) / 2 }

// FactorizeLocal is the sequential reference: the R factor of a, computed
// in-process with blocked Householder QR. Tests and examples compare the
// distributed algorithms against it.
func FactorizeLocal(a *matrix.Dense, nb int) *matrix.Dense { return seqR(a, nb) }

// seqR is the sequential reference behind FactorizeLocal.
func seqR(a *matrix.Dense, nb int) *matrix.Dense {
	f := a.Clone()
	tau := make([]float64, min(f.Rows, f.Cols))
	lapack.Dgeqrf(f, tau, nb)
	r := lapack.TriuCopy(f)
	if r.Rows > r.Cols {
		r = r.View(0, 0, r.Cols, r.Cols).Clone()
	}
	return r
}
