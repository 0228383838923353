package scalapack

import (
	"gridqr/internal/blas"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// PDGEQRF factors the distributed matrix with ScaLAPACK's blocked
// algorithm: panels of nb columns are factored by the PDGEQR2 loop, then
// the trailing matrix is updated with the accumulated block reflector
// (one Gram-matrix allreduce and one projection allreduce per panel).
// Blocking stops when fewer than nx columns remain to be updated,
// mirroring ScaLAPACK's NX crossover. Zero nb/nx select the paper's
// defaults (64/128).
func PDGEQRF(comm *mpi.Comm, in Input, nb, nx int) *Factorization {
	return pdgeqrf(comm, in, nb, nx, false)
}

// pdgeqrf is the blocked driver behind PDGEQRF and PDGEQRFLookahead; with
// lookahead set, each panel's trailing update beyond the next panel is
// deferred and drained in the following allreduces' wait windows.
func pdgeqrf(comm *mpi.Comm, in Input, nb, nx int, lookahead bool) *Factorization {
	in.validate(comm)
	if nb <= 0 {
		nb = DefaultNB
	}
	if nx <= 0 {
		nx = DefaultNX
	}
	f := &Factorization{Local: in.Local, Tau: make([]float64, in.N), M: in.M, N: in.N, Offsets: in.Offsets}
	p := &pd{comm: comm, in: in, f: f}
	if lookahead {
		p.spare = p.drainChunk
	}
	n := in.N
	j := 0
	for j < n {
		if n-j <= nx || nb >= n-j {
			// Below the crossover: plain per-column updates to the end,
			// which read every trailing column — the deferred update
			// must be current first.
			p.drainAll()
			p.panelQR2(j, n, n)
			break
		}
		jb := min(nb, n-j)
		p.panelQR2(j, j+jb, j+jb)
		p.blockUpdate(j, jb)
		j += jb
	}
	p.drainAll()
	f.R = ExtractR(comm, in)
	return f
}

// blockUpdate applies the block reflector of panel [j, j+jb) to the
// trailing columns [j+jb, N): C := (I − V·T·Vᵀ)ᵀ·C, distributed over the
// row blocks with two allreduces. Without a spare-cycle hook every
// trailing column is updated now; with one, only the next panel's
// columns are, and the rest is left to pendingUpdate.
func (p *pd) blockUpdate(j, jb int) {
	ctx := p.comm.Ctx()
	defer ctx.Phase("pdgeqrf.block_update")()
	n := p.in.N
	rest := n - j - jb
	myOff, myRows := p.myOff(), p.myRows()
	lo := min(max(0, j-myOff), myRows)
	active := myRows - lo

	// --- Allreduce 1: Gram matrix G = VᵀV (jb×jb) for the T factor ---
	// (its wait windows drain the previous panel's still-deferred update)
	gram := make([]float64, jb*jb)
	var vloc *matrix.Dense
	if ctx.HasData() {
		vloc = p.localV(j, jb)
		g := matrix.FromColMajor(jb, jb, gram)
		blas.Dsyrk(blas.Trans, 1, vloc, 0, g)
		// Mirror to full storage so OpSum reduces a full matrix.
		for c := 0; c < jb; c++ {
			for r := c + 1; r < jb; r++ {
				g.Set(r, c, g.At(c, r))
			}
		}
	}
	gram = p.comm.AllreduceOverlap(gram, mpi.OpSum, p.spare)
	ctx.Kernel("syrk", float64(active*jb*jb), n, nil)

	// Z reads every trailing column: the previous deferred update (if the
	// Gram tree's spare cycles did not finish it) must land now.
	p.drainAll()

	// --- Allreduce 2: Z = Vᵀ·C (jb×rest) ---
	z := make([]float64, jb*rest)
	var cloc *matrix.Dense
	if ctx.HasData() {
		cloc = p.in.Local.View(0, j+jb, myRows, rest)
		zm := matrix.FromColMajor(jb, rest, z)
		blas.Dgemm(blas.Trans, blas.NoTrans, 1, vloc, cloc, 0, zm)
	}
	z = p.comm.AllreduceOverlap(z, mpi.OpSum, p.spare)
	ctx.Kernel("gemm", float64(2*active*jb*rest), n, nil)

	// --- Local update: C −= V·(Tᵀ·Z), T from the Gram matrix and taus,
	// Y = Tᵀ·Z formed once; with lookahead only the next panel's columns
	// now, the rest deferred to the next panel's waits ---
	now := rest
	if p.spare != nil {
		now = min(jb, rest)
	}
	var y *matrix.Dense
	ctx.Kernel("gemm", float64(2*active*jb*now), n, func() {
		t := tFromGram(matrix.FromColMajor(jb, jb, gram), p.f.Tau[j:j+jb])
		y = matrix.FromColMajor(jb, rest, z).Clone()
		blas.Dtrmm(blas.Left, blas.Trans, false, 1, t, y)
		blas.Dgemm(blas.NoTrans, blas.NoTrans, -1,
			vloc, y.View(0, 0, jb, now), 1, cloc.View(0, 0, myRows, now))
	})
	if deferred := rest - now; deferred > 0 {
		// The next panel offers at least 2·jb spare-cycle windows (two
		// allreduces per column); size chunks to finish within them.
		p.pending = &pendingUpdate{
			vloc: vloc, y: y, j: j, jb: jb,
			col: j + jb + now, end: n,
			chunk:  (deferred + 2*jb - 1) / (2 * jb),
			active: active,
		}
	}
}

// localV materializes this rank's rows of the panel reflectors V for
// panel [j, j+jb): zero above the diagonal row, implicit 1 on it, stored
// tails below. The result is myRows×jb.
func (p *pd) localV(j, jb int) *matrix.Dense {
	myOff, myRows := p.myOff(), p.myRows()
	v := matrix.New(myRows, jb)
	for c := 0; c < jb; c++ {
		g0 := j + c // global diagonal row of reflector c
		for i := 0; i < myRows; i++ {
			g := myOff + i
			if g < g0 {
				continue
			}
			if g == g0 {
				v.Set(i, c, 1)
			} else {
				v.Set(i, c, p.in.Local.At(i, j+c))
			}
		}
	}
	return v
}

// tFromGram computes the T factor of the block reflector from the Gram
// matrix G = VᵀV and the taus, using the recurrence
// T[0:i, i] = −tau_i · T[0:i, 0:i] · G[0:i, i], T[i, i] = tau_i.
func tFromGram(g *matrix.Dense, tau []float64) *matrix.Dense {
	jb := g.Rows
	t := matrix.New(jb, jb)
	for i := 0; i < jb; i++ {
		t.Set(i, i, tau[i])
		if i == 0 || tau[i] == 0 {
			continue
		}
		col := make([]float64, i)
		for r := 0; r < i; r++ {
			col[r] = -tau[i] * g.At(r, i)
		}
		blas.Dtrmv(blas.NoTrans, t.View(0, 0, i, i), col)
		for r := 0; r < i; r++ {
			t.Set(r, i, col[r])
		}
	}
	return t
}
