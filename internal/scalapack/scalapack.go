// Package scalapack implements the baseline the paper compares against: a
// ScaLAPACK-style distributed-memory Householder QR factorization over a
// 1D row distribution.
//
// PDGEQR2 reproduces the communication pattern of ScaLAPACK's panel
// factorization (paper Fig. 1 and Table I): for every column, one
// allreduce to compute the Householder reflector (normalization) and one
// allreduce to apply it to the trailing columns (update) — at least
// 2N·log₂(P) messages for an M×N matrix, with no locality in the
// reduction tree. PDGEQRF adds ScaLAPACK's block-update structure
// (NB=64, NX=128 defaults quoted in Section II-B).
//
// The routines run in both data mode (real arithmetic on local row
// blocks) and cost-only mode (every message and flop charged, no data
// touched), selected by the mpi world's mode.
package scalapack

import (
	"fmt"
	"math"

	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// Defaults quoted by the paper for ScaLAPACK's PDGEQRF.
const (
	DefaultNB = 64  // block size b
	DefaultNX = 128 // crossover: no blocking when fewer columns remain
)

// BlockOffsets returns the contiguous 1D row distribution of m rows over
// p parts: offsets[r] is the first global row of part r and
// offsets[p] == m. Earlier parts take the remainder, so sizes differ by
// at most one row.
func BlockOffsets(m, p int) []int {
	if p < 1 || m < 0 {
		panic(fmt.Sprintf("scalapack: invalid distribution %d rows over %d parts", m, p))
	}
	offsets := make([]int, p+1)
	q, rem := m/p, m%p
	for r := 0; r < p; r++ {
		offsets[r+1] = offsets[r] + q
		if r < rem {
			offsets[r+1]++
		}
	}
	return offsets
}

// Input describes one process's share of the globally M×N row-distributed
// matrix.
type Input struct {
	M, N    int
	Offsets []int         // global row layout over comm ranks, len = comm.Size()+1
	Local   *matrix.Dense // this rank's row block; nil in cost-only mode
}

func (in Input) validate(comm *mpi.Comm) {
	p := comm.Size()
	if len(in.Offsets) != p+1 || in.Offsets[0] != 0 || in.Offsets[p] != in.M {
		panic("scalapack: bad offsets")
	}
	if comm.Ctx().HasData() {
		r := comm.Rank()
		want := in.Offsets[r+1] - in.Offsets[r]
		if in.Local == nil || in.Local.Rows != want || in.Local.Cols != in.N {
			panic(fmt.Sprintf("scalapack: rank %d local block mismatch", comm.Rank()))
		}
	}
}

// Factorization holds the distributed output of PDGEQR2/PDGEQRF: each
// rank keeps its local block overwritten with the R rows it owns and the
// reflector tails below them, plus the tau values, so the explicit Q can
// be formed later. R (N×N) is returned on comm rank 0 only.
type Factorization struct {
	R       *matrix.Dense // on comm rank 0; nil elsewhere and in cost-only mode
	Local   *matrix.Dense // factored local block (aliases the input block)
	Tau     []float64     // scaling factors of all N reflectors (replicated)
	M, N    int
	Offsets []int
}

// PDGEQR2 factors the distributed matrix with the unblocked one-allreduce-
// per-column-per-phase algorithm of ScaLAPACK's panel routine.
func PDGEQR2(comm *mpi.Comm, in Input) *Factorization {
	in.validate(comm)
	f := &Factorization{Local: in.Local, Tau: make([]float64, in.N), M: in.M, N: in.N, Offsets: in.Offsets}
	p := &pd{comm: comm, in: in, f: f}
	p.panelQR2(0, in.N, in.N)
	f.R = ExtractR(comm, in)
	return f
}

// pd carries the per-rank state of a distributed factorization.
type pd struct {
	comm *mpi.Comm
	in   Input
	f    *Factorization
	// spare, when non-nil (the lookahead variant), is handed to every
	// allreduce so deferred trailing-update chunks run inside the
	// reduction tree's wait windows. pending is the deferred work.
	spare   func()
	pending *pendingUpdate
}

func (p *pd) myOff() int  { return p.in.Offsets[p.comm.Rank()] }
func (p *pd) myRows() int { return p.in.Offsets[p.comm.Rank()+1] - p.myOff() }

// allreduce routes through AllreduceOverlap when a spare-cycle hook is
// installed; traffic is identical either way.
func (p *pd) allreduce(v []float64) []float64 {
	if p.spare != nil {
		return p.comm.AllreduceOverlap(v, mpi.OpSum, p.spare)
	}
	return p.comm.Allreduce(v, mpi.OpSum)
}

// panelQR2 factors columns [j0, j1) with per-column allreduces, updating
// trailing columns up to updateTo (exclusive). PDGEQR2 is
// panelQR2(0, N, N); PDGEQRF uses it per panel with updateTo = j1 and
// performs the wider update with block reflectors.
func (p *pd) panelQR2(j0, j1, updateTo int) {
	ctx := p.comm.Ctx()
	defer ctx.Phase("pdgeqr2.panel")()
	local, myOff, myRows := p.in.Local, p.myOff(), p.myRows()
	n := p.in.N
	for j := j0; j < j1; j++ {
		// Local active rows: global rows >= j. lo is clamped to myRows
		// for ranks whose whole block is above row j (already reduced).
		lo := min(max(0, j-myOff), myRows)
		// --- Normalization allreduce: [sum of squares of tail, alpha] ---
		norm := make([]float64, 2)
		if ctx.HasData() {
			for i := lo; i < myRows; i++ {
				g := myOff + i
				v := local.At(i, j)
				if g > j {
					norm[0] += v * v
				} else if g == j {
					norm[1] = v
				}
			}
		}
		norm = p.allreduce(norm)
		var tau, beta, scale float64
		if ctx.HasData() {
			beta, tau, scale = reflectorFromNorm(norm[1], norm[0])
			p.f.Tau[j] = tau
			// Scale the local tail into v; the owner writes beta.
			for i := lo; i < myRows; i++ {
				g := myOff + i
				if g > j {
					local.Set(i, j, local.At(i, j)*scale)
				} else if g == j {
					local.Set(i, j, beta)
				}
			}
		}
		activeRows := myRows - lo
		ctx.ChargeKernel("larfg", float64(3*activeRows), n)
		if j+1 >= updateTo {
			continue // no trailing columns in range: no update reduction (Fig. 1)
		}
		// --- Update allreduce: w = vᵀ·A[:, j+1:updateTo] ---
		w := make([]float64, updateTo-j-1)
		if ctx.HasData() {
			for k := j + 1; k < updateTo; k++ {
				var s float64
				for i := lo; i < myRows; i++ {
					g := myOff + i
					if g > j {
						s += local.At(i, j) * local.At(i, k)
					} else if g == j {
						s += local.At(i, k) // implicit v_j = 1
					}
				}
				w[k-j-1] = s
			}
		}
		w = p.allreduce(w)
		if ctx.HasData() && tau != 0 {
			for k := j + 1; k < updateTo; k++ {
				fwk := tau * w[k-j-1]
				for i := lo; i < myRows; i++ {
					g := myOff + i
					if g > j {
						local.Set(i, k, local.At(i, k)-fwk*local.At(i, j))
					} else if g == j {
						local.Set(i, k, local.At(i, k)-fwk)
					}
				}
			}
		}
		ctx.ChargeKernel("larf", float64(4*activeRows*(updateTo-j-1)), n)
	}
}

// reflectorFromNorm builds the Householder reflector parameters from the
// allreduced [tail sum-of-squares, alpha] pair, the distributed
// equivalent of Dlarfg.
func reflectorFromNorm(alpha, ssq float64) (beta, tau, scale float64) {
	if ssq == 0 {
		return alpha, 0, 0
	}
	nrm := math.Sqrt(alpha*alpha + ssq)
	if alpha >= 0 {
		beta = -nrm
	} else {
		beta = nrm
	}
	return beta, (beta - alpha) / beta, 1 / (alpha - beta)
}

// ExtractR assembles the N×N upper triangular factor on comm rank 0 from
// whichever ranks own global rows 0..N-1. For the tall matrices this
// library targets, rank 0's block covers all of R and no messages move.
func ExtractR(comm *mpi.Comm, in Input) *matrix.Dense {
	if !comm.Ctx().HasData() {
		return nil
	}
	const tagR = 1 << 20
	n := in.N
	me := comm.Rank()
	myOff, myEnd := in.Offsets[me], in.Offsets[me+1]
	if me != 0 {
		if myOff < n { // I own some rows of R: ship them packed.
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
