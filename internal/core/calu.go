package core

import (
	"gridqr/internal/blas"
	"gridqr/internal/flops"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// CALU is communication-avoiding LU for general matrices: each panel is
// pivoted by a TSLU tournament over the grid-tuned reduction tree, the
// winning rows are swapped to the panel top, and the trailing matrix is
// updated with two broadcasts per panel — against the one
// pivot-search allreduce per *column* of a conventional distributed
// right-looking LU. Together with CAQRFactorize this completes the
// paper's §VI claim that the TSQR/CAQR approach "can be (trivially)
// extended to TSLU/CALU".
//
// The implementation computes the in-place factors over the same
// contiguous row distribution as the other routines (blocks must be
// multiples of the panel width), records the global row permutation, and
// gathers U on rank 0. Tournament pivoting bounds the element growth like
// partial pivoting does in practice (a modest constant over it in the
// worst case), which the tests assert.

// CALUConfig controls the factorization.
type CALUConfig struct {
	// NB is the panel width (0 = lapack.DefaultBlock).
	NB int
}

// CALUResult holds the outcome.
type CALUResult struct {
	// U is the N×N upper triangular factor, gathered on rank 0 (nil
	// elsewhere).
	U *matrix.Dense
	// Perm maps factored row k to the original global row Perm[k]; on
	// every rank (the permutation is driven identically everywhere).
	Perm []int
	// LLocal is this rank's rows of the factored matrix: L strictly
	// below the diagonal (unit implied), U on and above. Aliases
	// Input.Local, which is overwritten.
	LLocal *matrix.Dense
	// MaxL is the largest multiplier magnitude across ranks (growth
	// metric).
	MaxL float64
	// Panels is the number of panel iterations.
	Panels int
}

// CALU tag spaces: swaps, panel broadcasts and tournament rounds must
// never collide, since phases of adjacent panels can overlap in flight.
const (
	caluSwapTag  = 1<<16 - 1
	caluBcastTag = 1 << 16 // +2·panel (diag) and +2·panel+1 (trailing)
	caluTagBase  = 1 << 17 // +panel·caqrTagStride+round for tournaments
)

// CALUFactorize runs CALU on a world-spanning communicator. M ≥ N and
// row blocks divisible by NB are required, as in CAQRFactorize. Only the
// data mode is supported (the pivot choices depend on values, which a
// cost-only run cannot reproduce; use CAQR for cost studies).
func CALUFactorize(comm *mpi.Comm, in Input, cfg CALUConfig) *CALUResult {
	in.validate(comm)
	ctx := comm.Ctx()
	if !ctx.HasData() {
		panic("core: CALU requires data mode (pivoting is value-dependent)")
	}
	if in.M < in.N {
		panic("core: CALU requires M >= N")
	}
	nb := in.panelWidth("CALU", cfg.NB)
	me := comm.Rank()
	myOff, myEnd := in.Offsets[me], in.Offsets[me+1]
	res := &CALUResult{LLocal: in.Local, Perm: make([]int, in.M)}
	for i := range res.Perm {
		res.Perm[i] = i
	}

	for j := 0; j < in.N; j += nb {
		jb := min(nb, in.N-j)
		res.Panels++
		active := in.activeRanks(j)
		iAmActive := myEnd > j
		lo := min(max(0, j-myOff), myEnd-myOff)

		// --- Tournament over the panel columns [j, j+jb) ---
		pivots := caluTournament(comm, in, active, j, jb, lo)

		// --- Swap the winning rows to positions j..j+jb (full width) ---
		for k := 0; k < jb; k++ {
			caluSwapRows(comm, in, res.Perm, j+k, pivots[k])
			// Keep later pivot references valid: if a later pivot named
			// the row we just displaced, it now lives where the winner
			// came from.
			for l := k + 1; l < jb; l++ {
				switch pivots[l] {
				case j + k:
					pivots[l] = pivots[k]
				case pivots[k]:
					pivots[l] = j + k
				}
			}
		}

		// --- Panel factorization without further pivoting ---
		// The diagonal block rows j..j+jb live on active[0].
		root := active[0]
		diag := matrix.New(jb, jb) // L₀\U₀ packed
		if me == root {
			rootLo := j - myOff
			blk := in.Local.View(rootLo, j, jb, jb)
			caluUnpivotedLU(blk)
			matrix.Copy(diag, blk)
		}
		ctx.Charge(flops.GETF2(jb, jb), jb)
		// Broadcast the diagonal block to the active ranks.
		diagBuf := bcastAmong(comm, active, me, root, diag.Data, caluBcastTag+2*res.Panels)
		if iAmActive && me != root {
			diag = matrix.FromColMajor(jb, jb, diagBuf)
		}

		// Each active rank computes its panel L rows: L_p = A_p·U₀⁻¹.
		if iAmActive {
			start := lo
			if me == root {
				start = lo + jb // diagonal block already factored
			}
			rows := (myEnd - myOff) - start
			if rows > 0 {
				lp := in.Local.View(start, j, rows, jb)
				blas.Dtrsm(blas.Right, blas.NoTrans, false, 1, diag, lp)
				ctx.Charge(float64(rows)*float64(jb)*float64(jb), jb)
				if m := matrix.NormMax(lp); m > res.MaxL {
					res.MaxL = m
				}
			}
			if m := unitLowerMax(diag); m > res.MaxL {
				res.MaxL = m
			}
		}

		// --- Trailing update ---
		rest := in.N - j - jb
		if rest == 0 {
			continue
		}
		// Root: U_trail = L₀⁻¹ · A₀_trail, then broadcast.
		uTrail := matrix.New(jb, rest)
		if me == root {
			rootLo := j - myOff
			t := in.Local.View(rootLo, j+jb, jb, rest)
			// Solve L₀·X = A₀_trail; L₀ is unit lower = lowerOf(diag)ᵀ.
			blas.Dtrsm(blas.Left, blas.Trans, true, 1, lowerOf(diag), t)
			matrix.Copy(uTrail, t)
			ctx.Charge(float64(jb)*float64(jb)*float64(rest), jb)
		}
		uBuf := bcastAmong(comm, active, me, root, uTrail.Data, caluBcastTag+2*res.Panels+1)
		if iAmActive && me != root {
			uTrail = matrix.FromColMajor(jb, rest, uBuf)
		}
		// Everyone: A_trail -= L_p · U_trail on their own rows.
		if iAmActive {
			start := lo
			if me == root {
				start = lo + jb
			}
			rows := (myEnd - myOff) - start
			if rows > 0 {
				lp := in.Local.View(start, j, rows, jb)
				tr := in.Local.View(start, j+jb, rows, rest)
				blas.Dgemm(blas.NoTrans, blas.NoTrans, -1, lp, uTrail, 1, tr)
				ctx.Charge(flops.GEMM(rows, rest, jb), jb)
			}
		}
	}
	res.U = scalapack.ExtractR(comm, scalapack.Input(in))
	return res
}

// caluUnpivotedLU factors a square block in place without pivoting (the
// tournament already moved acceptable pivots onto the diagonal).
func caluUnpivotedLU(a *matrix.Dense) {
	n := a.Rows
	for k := 0; k < n; k++ {
		piv := a.At(k, k)
		col := a.Col(k)
		for i := k + 1; i < n; i++ {
			col[i] /= piv
		}
		for c := k + 1; c < n; c++ {
			cc := a.Col(c)
			f := cc[k]
			if f == 0 {
				continue
			}
			for i := k + 1; i < n; i++ {
				cc[i] -= f * col[i]
			}
		}
	}
}

// lowerOf returns the unit lower triangular factor packed in a as an
// upper-triangular-storage transpose for Dtrsm(Left): solving L₀·X = B
// equals Dtrsm with the transposed upper operand.
func lowerOf(packed *matrix.Dense) *matrix.Dense {
	// Dtrsm in this codebase handles upper triangular operands; express
	// L₀ as Uᵀ with unit diagonal: build U = L₀ᵀ.
	n := packed.Rows
	u := matrix.New(n, n)
	for j := 0; j < n; j++ {
		u.Set(j, j, 1)
		for i := j + 1; i < n; i++ {
			u.Set(j, i, packed.At(i, j))
		}
	}
	return u
}
