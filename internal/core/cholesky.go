package core

import (
	"gridqr/internal/blas"
	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// Cholesky is the distributed communication-avoiding Cholesky
// factorization A = RᵀR of a symmetric positive definite matrix,
// completing the trio the paper's introduction names ("we discuss how our
// approach generalizes to all one-sided factorizations (QR, LU and
// Cholesky)") and its conclusion cites (Ballard, Demmel, Holtz, Schwartz).
//
// The N×N matrix is row-distributed like everything else in this library
// (only the upper triangle is referenced). Each panel costs exactly one
// broadcast of jb factored rows — no per-column traffic — so the message
// count is O((N/NB)·log P) against the Θ(N·log P) of per-column
// right-looking variants.

// CholeskyConfig controls the factorization.
type CholeskyConfig struct {
	// NB is the panel width (0 = lapack.DefaultBlock). Row blocks must
	// be multiples of it.
	NB int
}

// CholeskyResult holds the outcome.
type CholeskyResult struct {
	// OK reports positive definiteness; on false the factorization
	// stopped at a non-positive pivot.
	OK bool
	// R is the N×N upper triangular factor gathered on rank 0 (nil
	// elsewhere and in cost-only mode).
	R *matrix.Dense
	// Panels is the number of panel iterations performed.
	Panels int
}

const cholBcastTag = 1<<16 + 4096 // +panel; disjoint from the CALU ranges

// CholeskyFactorize runs the distributed factorization on a
// world-spanning communicator. Input.Local (this rank's rows of the
// symmetric matrix) is overwritten with the corresponding rows of R.
func CholeskyFactorize(comm *mpi.Comm, in Input, cfg CholeskyConfig) *CholeskyResult {
	in.validate(comm)
	if in.M != in.N {
		panic("core: Cholesky requires a square matrix")
	}
	ctx := comm.Ctx()
	nb := in.panelWidth("Cholesky", cfg.NB)
	me := comm.Rank()
	myOff, myEnd := in.Offsets[me], in.Offsets[me+1]
	res := &CholeskyResult{OK: true}
	n := in.N

	for j := 0; j < n; j += nb {
		jb := min(nb, n-j)
		res.Panels++
		owner := ownerOf(in.Offsets, j)
		rest := n - j - jb
		// The owner factors its jb panel rows and prepares the broadcast
		// payload: [ok, R_diag (jb×jb), R_offdiag (jb×rest)].
		payload := make([]float64, 1+jb*jb+jb*rest)
		if me == owner && ctx.HasData() {
			lo := j - myOff
			diag := in.Local.View(lo, j, jb, jb)
			if !lapack.Dpotrf(diag) {
				payload[0] = -1
			} else {
				payload[0] = 1
				// Clear the subdiagonal garbage of the factored block.
				for c := 0; c < jb; c++ {
					for r := c + 1; r < jb; r++ {
						diag.Set(r, c, 0)
					}
				}
				if rest > 0 {
					// R_off = R_diag⁻ᵀ · A[j:j+jb, j+jb:].
					off := in.Local.View(lo, j+jb, jb, rest)
					blas.Dtrsm(blas.Left, blas.Trans, false, 1, diag, off)
				}
				packPanel(payload[1:], in.Local.View(lo, j, jb, n-j), jb)
			}
		} else if me == owner {
			payload[0] = 1
		}
		if me == owner {
			ctx.Charge(flops.GEQRF(jb, jb)/4+float64(jb)*float64(jb)*float64(rest), jb)
		}
		// One broadcast per panel to the ranks that still hold active rows.
		active := in.activeRanks(j)
		payload = bcastAmong(comm, active, me, owner, payload, cholBcastTag+res.Panels)
		if myEnd <= j {
			continue // my rows are done; failure is learned after the loop
		}
		if payload[0] < 0 {
			res.OK = false
			break // active ranks all see the failed panel together
		}
		// Trailing update on my rows below the panel:
		// A[g, c] -= Σ_t R[t, g]·R[t, c] for my g ≥ j+jb, c ≥ g.
		lo := max(0, j+jb-myOff)
		rows := (myEnd - myOff) - lo
		if rest == 0 || rows <= 0 {
			continue
		}
		ctx.Charge(float64(rows)*float64(rest)*float64(jb), jb)
		if !ctx.HasData() {
			continue
		}
		rpanel := matrix.FromColMajor(jb, rest, payload[1+jb*jb:])
		for li := 0; li < rows; li++ {
			g := myOff + lo + li
			gc := g - j - jb // my row's column index within rpanel
			for c := gc; c < rest; c++ {
				var s float64
				for t := 0; t < jb; t++ {
					s += rpanel.At(t, gc) * rpanel.At(t, c)
				}
				col := in.Local.Col(j + jb + c)
				col[lo+li] -= s
			}
		}
	}
	// Agree on success before gathering, so ranks whose rows finished
	// before a failing panel do not deadlock the gather.
	okFlag := 1.0
	if !res.OK {
		okFlag = 0
	}
	if comm.Allreduce([]float64{okFlag}, opMin)[0] == 0 {
		res.OK = false
		return res
	}
	res.R = scalapack.ExtractR(comm, scalapack.Input(in))
	return res
}

// opMin keeps the elementwise minimum in dst.
func opMin(dst, src []float64) {
	for i, v := range src {
		if v < dst[i] {
			dst[i] = v
		}
	}
}

// packPanel serializes the jb×(jb+rest) factored panel rows column by
// column into buf (diag block first, then the off-diagonal block — the
// natural order of the source view).
func packPanel(buf []float64, panel *matrix.Dense, jb int) {
	idx := 0
	for c := 0; c < panel.Cols; c++ {
		col := panel.Col(c)[:jb]
		copy(buf[idx:idx+jb], col)
		idx += jb
	}
}
