package core

import (
	"gridqr/internal/blas"
	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// TSLU is the LU analog of TSQR — communication-avoiding Gaussian
// elimination with tournament pivoting (Grigori, Demmel, Xiang), the
// extension the paper's conclusion singles out: "the work and conclusion
// we have reached here for TSQR/CAQR can be (trivially) extended to
// TSLU/CALU".
//
// Each process factors its row block with partial pivoting and selects
// the N pivot rows as its candidate set; candidate sets are then merged
// pairwise up the same grid-tuned reduction tree as TSQR — each merge
// stacks two candidate sets and re-pivots — until the root holds the N
// tournament pivot rows, whose LU factorization yields U. Every process
// finally computes its rows of L as A·U⁻¹. Like TSQR, the tuned tree
// crosses clusters exactly C−1 times, independent of N.

// TSLUConfig controls the factorization.
type TSLUConfig struct {
	// Tree selects the reduction tree; TreeBinaryShuffled is not
	// supported (the tournament must root at rank 0).
	Tree Tree
}

// TSLUResult holds the outcome. Unlike Factorize, TSLU does not overwrite
// Input.Local (the original rows are needed to build L).
type TSLUResult struct {
	// U is the N×N upper triangular factor, on world rank 0 only.
	U *matrix.Dense
	// PivotRows are the global indices of the N tournament-selected
	// rows, in elimination order; on world rank 0 only.
	PivotRows []int
	// LLocal is this rank's row block of L = A·U⁻¹ (nil in cost-only
	// mode). Rows PivotRows[k] of the global L form a unit lower
	// triangular matrix in elimination order.
	LLocal *matrix.Dense
	// MaxL is the largest |L| entry across all ranks — the stability
	// metric of tournament pivoting (1 for plain partial pivoting on
	// the gathered matrix; modest growth for TSLU).
	MaxL float64
}

const tsluTagBase = 1 << 19

// TSLUFactorize runs tournament-pivoting LU on a world-spanning
// communicator with one domain per process.
func TSLUFactorize(comm *mpi.Comm, in Input, cfg TSLUConfig) *TSLUResult {
	in.validate(comm)
	if cfg.Tree == TreeBinaryShuffled {
		panic("core: TSLU does not support the shuffled tree")
	}
	ctx := comm.Ctx()
	n := in.N
	me := comm.Rank()
	myOff := in.Offsets[me]
	myRows := in.Offsets[me+1] - myOff
	if myRows < n {
		panic("core: TSLU needs at least N rows per process")
	}
	res := &TSLUResult{}

	// --- Leaf: select my N candidate pivot rows by partial pivoting ---
	var cand *matrix.Dense // n×n candidate rows (original values)
	var candIdx []int      // their global row indices
	if ctx.HasData() {
		f := in.Local.Clone()
		ipiv := make([]int, n)
		lapack.Dgetf2(f, ipiv)
		perm := lapack.PivToPerm(ipiv, myRows)
		cand = matrix.New(n, n)
		candIdx = make([]int, n)
		for k := 0; k < n; k++ {
			candIdx[k] = myOff + perm[k]
			for j := 0; j < n; j++ {
				cand.Set(k, j, in.Local.At(perm[k], j))
			}
		}
	}
	ctx.Charge(flops.GETF2(myRows, n), n)

	// --- Tournament up the reduction tree, one domain per process ---
	for _, s := range scheduleFor(comm, Config{Tree: cfg.Tree}).perDom[me] {
		if !s.recv {
			if ctx.HasData() {
				comm.Send(s.peer, packCandidates(cand, candIdx), tsluTagBase+s.tag)
			} else {
				comm.SendBytes(s.peer, 8*float64(n*n+n), tsluTagBase+s.tag)
			}
			break
		}
		if ctx.HasData() {
			otherCand, otherIdx := unpackCandidates(comm.Recv(s.peer, tsluTagBase+s.tag), n)
			cand, candIdx = tournamentRound(cand, candIdx, otherCand, otherIdx)
		} else {
			comm.Recv(s.peer, tsluTagBase+s.tag)
		}
		ctx.Charge(flops.GETF2(2*n, n), n)
	}

	// --- Root: factor the winning rows; broadcast U ---
	uBuf := make([]float64, n*n)
	if me == 0 && ctx.HasData() {
		f := cand.Clone()
		ipiv := make([]int, n)
		lapack.Dgetf2(f, ipiv)
		perm := lapack.PivToPerm(ipiv, n)
		res.PivotRows = make([]int, n)
		for k := 0; k < n; k++ {
			res.PivotRows[k] = candIdx[perm[k]]
		}
		res.U = lapack.TriuCopy(f)
		u := matrix.FromColMajor(n, n, uBuf)
		matrix.Copy(u, res.U)
	}
	if me == 0 {
		ctx.Charge(flops.GETF2(n, n), n)
	}
	uBuf = comm.Bcast(0, uBuf)

	// --- Everyone: L = A·U⁻¹ on their own rows ---
	if ctx.HasData() {
		u := matrix.FromColMajor(n, n, uBuf)
		res.LLocal = in.Local.Clone()
		blas.Dtrsm(blas.Right, blas.NoTrans, false, 1, u, res.LLocal)
		res.MaxL = matrix.NormMax(res.LLocal)
	}
	ctx.Charge(float64(myRows)*float64(n)*float64(n), n)

	// Stability metric shared with every rank.
	res.MaxL = comm.Allreduce([]float64{res.MaxL}, mpi.OpMax)[0]
	return res
}

// tournamentRound stacks two candidate sets, re-pivots, and returns the
// winning n rows with their global indices.
func tournamentRound(a *matrix.Dense, aIdx []int, b *matrix.Dense, bIdx []int) (*matrix.Dense, []int) {
	n := a.Cols
	stacked := matrix.Stack(a, b)
	idx := append(append([]int(nil), aIdx...), bIdx...)
	f := stacked.Clone()
	ipiv := make([]int, n)
	lapack.Dgetf2(f, ipiv)
	perm := lapack.PivToPerm(ipiv, 2*n)
	out := matrix.New(n, n)
	outIdx := make([]int, n)
	for k := 0; k < n; k++ {
		outIdx[k] = idx[perm[k]]
		for j := 0; j < n; j++ {
			out.Set(k, j, stacked.At(perm[k], j))
		}
	}
	return out, outIdx
}

// packCandidates serializes candidate rows and indices into one payload.
func packCandidates(cand *matrix.Dense, idx []int) []float64 {
	n := cand.Rows
	buf := make([]float64, 0, n*n+n)
	for j := 0; j < n; j++ {
		buf = append(buf, cand.Col(j)...)
	}
	for _, i := range idx {
		buf = append(buf, float64(i))
	}
	return buf
}

func unpackCandidates(buf []float64, n int) (*matrix.Dense, []int) {
	cand := matrix.New(n, n)
	for j := 0; j < n; j++ {
		copy(cand.Col(j), buf[j*n:(j+1)*n])
	}
	idx := make([]int, n)
	for k := 0; k < n; k++ {
		idx[k] = int(buf[n*n+k])
	}
	return cand, idx
}
