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
	in.validate(comm)
	if nb <= 0 {
		nb = DefaultNB
	}
	if nx <= 0 {
		nx = DefaultNX
	}
	f := &Factorization{Local: in.Local, Tau: make([]float64, in.N), M: in.M, N: in.N, Offsets: in.Offsets}
	p := &pd{comm: comm, in: in, f: f}
	n := in.N
	j := 0
	for j < n {
		if n-j <= nx || nb >= n-j {
			// Below the crossover: plain per-column updates to the end.
			p.panelQR2(j, n, n)
			break
		}
		jb := min(nb, n-j)
		p.panelQR2(j, j+jb, j+jb)
		p.blockUpdate(j, jb)
		j += jb
	}
	f.R = ExtractR(comm, in)
	return f
}

// blockUpdate applies the block reflector of panel [j, j+jb) to the
// trailing columns [j+jb, N): C := (I − V·T·Vᵀ)ᵀ·C, distributed over the
// row blocks with two allreduces.
func (p *pd) blockUpdate(j, jb int) {
	ctx := p.comm.Ctx()
	defer ctx.Phase("pdgeqrf.block_update")()
	n := p.in.N
	rest := n - j - jb
	myOff, myRows := p.myOff(), p.myRows()
	lo := min(max(0, j-myOff), myRows)
	active := myRows - lo

	// --- Allreduce 1: Gram matrix G = VᵀV (jb×jb) for the T factor ---
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
	gram = p.allreduce(gram)
	ctx.ChargeKernel("syrk", float64(active*jb*jb), n)

	// --- Local T from the Gram matrix and taus ---
	var t *matrix.Dense
	if ctx.HasData() {
		t = tFromGram(matrix.FromColMajor(jb, jb, gram), p.f.Tau[j:j+jb])
	}

	// --- Allreduce 2: Z = Vᵀ·C (jb×rest) ---
	z := make([]float64, jb*rest)
	var cloc *matrix.Dense
	if ctx.HasData() {
		cloc = p.in.Local.View(0, j+jb, myRows, rest)
		zm := matrix.FromColMajor(jb, rest, z)
		blas.Dgemm(blas.Trans, blas.NoTrans, 1, vloc, cloc, 0, zm)
	}
	z = p.allreduce(z)
	ctx.ChargeKernel("gemm", float64(2*active*jb*rest), n)

	// --- Local update: C −= V·(Tᵀ·Z) ---
	if ctx.HasData() {
		y := matrix.FromColMajor(jb, rest, z).Clone()
		blas.Dtrmm(blas.Left, blas.Trans, false, 1, t, y)
		blas.Dgemm(blas.NoTrans, blas.NoTrans, -1, vloc, y, 1, cloc)
	}
	ctx.ChargeKernel("gemm", float64(2*active*jb*rest), n)
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
