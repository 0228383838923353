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
	var cand candidates
	if ctx.HasData() {
		idx := make([]int, myRows)
		for i := range idx {
			idx[i] = myOff + i
		}
		cand, _ = pivotRows(in.Local, idx)
	}
	ctx.Charge(flops.GETF2(myRows, n), n)

	// --- Tournament up the reduction tree, one domain per process ---
	cand = reduction[candidates]{comm: comm, route: scheduleFor(comm, Config{Tree: cfg.Tree}).route(me),
		tags: tagSpace{base: tsluTagBase}, op: tournament{comm, n}}.run(cand).state

	// --- Root: factor the winning rows; broadcast U ---
	uBuf := make([]float64, n*n)
	if me == 0 && ctx.HasData() {
		win, f := pivotRows(cand.rows, cand.idx)
		res.PivotRows = win.idx
		res.U = lapack.TriuCopy(f)
		matrix.Copy(matrix.FromColMajor(n, n, uBuf), res.U)
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

// candidates is the state the tournament reduces: n rows of A (original
// values) and their global row indices. Zero in a cost-only world.
type candidates struct {
	rows *matrix.Dense
	idx  []int
}

// pivotRows runs partial pivoting on a copy of a, whose row i is global
// row idx[i], and returns the n pivot rows it chose, in elimination
// order, with the factored copy.
func pivotRows(a *matrix.Dense, idx []int) (candidates, *matrix.Dense) {
	n := a.Cols
	f := a.Clone()
	ipiv := make([]int, n)
	lapack.Dgetf2(f, ipiv)
	perm := lapack.PivToPerm(ipiv, a.Rows)
	win := candidates{rows: matrix.New(n, n), idx: make([]int, n)}
	for k := 0; k < n; k++ {
		win.idx[k] = idx[perm[k]]
		for j := 0; j < n; j++ {
			win.rows.Set(k, j, a.At(perm[k], j))
		}
	}
	return win, f
}

// tournament is TSLU's operator: two candidate sets combine by stacking
// them and re-pivoting, the winners carry on.
type tournament struct {
	comm *mpi.Comm
	n    int
}

// send and recv move one candidate set, rows column by column and then
// the indices; like triangles.send and recv they are the fork between
// data and cost-only worlds.
func (t tournament) send(peer, tag int, c candidates) {
	if !t.comm.Ctx().HasData() {
		t.comm.SendBytes(peer, 8*float64(t.n*t.n+t.n), tag)
		return
	}
	buf := append(make([]float64, 0, t.n*t.n+t.n), c.rows.Data...)
	for _, i := range c.idx {
		buf = append(buf, float64(i))
	}
	t.comm.Send(peer, buf, tag)
}

func (t tournament) recv(peer, tag int) candidates {
	buf := t.comm.Recv(peer, tag)
	if !t.comm.Ctx().HasData() {
		return candidates{}
	}
	c := candidates{rows: matrix.FromColMajor(t.n, t.n, buf[:t.n*t.n]), idx: make([]int, t.n)}
	for k := range c.idx {
		c.idx[k] = int(buf[t.n*t.n+k])
	}
	return c
}

func (t tournament) absorb(mine, theirs candidates, _ step) candidates {
	if theirs.rows != nil {
		mine, _ = pivotRows(matrix.Stack(mine.rows, theirs.rows), append(append([]int(nil), mine.idx...), theirs.idx...))
	}
	t.comm.Ctx().Charge(flops.GETF2(2*t.n, t.n), t.n)
	return mine
}
