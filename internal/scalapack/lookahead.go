package scalapack

import (
	"gridqr/internal/blas"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// Lookahead PDGEQRF. The blocked algorithm's trailing-matrix update is
// the one large local computation between communication phases, and in
// the blocking variant it sits entirely on the critical path: every rank
// finishes the full GEMM before entering the next panel's per-column
// allreduces, then idles through 2·nb latency-bound reduction trees.
// The lookahead variant reorders exactly that: after factoring panel k
// it applies the block reflector eagerly only to the columns of panel
// k+1 (so the next panel factorization can start immediately), and
// defers the update of the remaining trailing columns. The deferred GEMM
// is then drained in fixed column chunks inside the wait windows of
// panel k+1's allreduces — the spare-cycle hook of
// mpi.AllreduceOverlap — and any remainder is forced out before the
// next panel's projection (Z = VᵀC) reads the trailing columns.
//
// Communication is untouched: the same allreduces of the same lengths on
// the same binomial trees, so message and byte totals are exactly those
// of PDGEQRF. Flop totals are also identical — the update GEMM is merely
// split by columns. And because a GEMM computes each output column
// independently, the chunked updates produce the same floating-point
// results as the single blocking update, so the factorization agrees
// with PDGEQRF's to the last bit.

// pendingUpdate is a deferred slice of a block-reflector trailing
// update: columns [col, end) of C still owe C -= V·Y[:, ·], where
// Y = Tᵀ·(VᵀC) was fully formed when the update was scheduled.
type pendingUpdate struct {
	vloc   *matrix.Dense // myRows×jb reflectors (nil in cost-only mode)
	y      *matrix.Dense // jb×rest, already multiplied by Tᵀ (nil in cost-only)
	j, jb  int           // panel the update belongs to
	col    int           // next global column to update
	end    int           // exclusive end of the deferred range
	chunk  int           // columns applied per spare-cycle call
	active int           // local active rows, for flop charging
}

// PDGEQRFLookahead is PDGEQRF with compute/communication overlap: the
// trailing update of each panel is deferred and drained inside the next
// panel's allreduce wait windows. Same traffic, same flops, bitwise
// identical factors; strictly less time blocked on the network whenever
// there is an update to hide. Zero nb/nx select the same defaults as
// PDGEQRF.
func PDGEQRFLookahead(comm *mpi.Comm, in Input, nb, nx int) *Factorization {
	in.validate(comm)
	if nb <= 0 {
		nb = DefaultNB
	}
	if nx <= 0 {
		nx = DefaultNX
	}
	f := &Factorization{Local: in.Local, Tau: make([]float64, in.N), M: in.M, N: in.N, Offsets: in.Offsets}
	p := &pd{comm: comm, in: in, f: f}
	p.spare = p.drainChunk
	n := in.N
	j := 0
	for j < n {
		if n-j <= nx || nb >= n-j {
			// The crossover panel updates every trailing column per
			// reflector, so the deferred update must be current first.
			p.drainAll()
			p.panelQR2(j, n, n)
			break
		}
		jb := min(nb, n-j)
		p.panelQR2(j, j+jb, j+jb)
		p.blockUpdateLookahead(j, jb)
		j += jb
	}
	p.drainAll()
	f.R = ExtractR(comm, in)
	return f
}

// blockUpdateLookahead is blockUpdate splitting the final GEMM: columns
// of the next panel eagerly, the rest deferred to spare cycles.
func (p *pd) blockUpdateLookahead(j, jb int) {
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
		for c := 0; c < jb; c++ {
			for r := c + 1; r < jb; r++ {
				g.Set(r, c, g.At(c, r))
			}
		}
	}
	gram = p.allreduce(gram)
	ctx.ChargeKernel("syrk", float64(active*jb*jb), n)

	var t *matrix.Dense
	if ctx.HasData() {
		t = tFromGram(matrix.FromColMajor(jb, jb, gram), p.f.Tau[j:j+jb])
	}

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
	z = p.allreduce(z)
	ctx.ChargeKernel("gemm", float64(2*active*jb*rest), n)

	// --- Split update: Y = Tᵀ·Z once; next panel's columns now, the
	// remaining trailing columns deferred to the next panel's waits ---
	next := min(jb, rest)
	var y *matrix.Dense
	if ctx.HasData() {
		y = matrix.FromColMajor(jb, rest, z).Clone()
		blas.Dtrmm(blas.Left, blas.Trans, false, 1, t, y)
		blas.Dgemm(blas.NoTrans, blas.NoTrans, -1,
			vloc, y.View(0, 0, jb, next), 1, p.in.Local.View(0, j+jb, myRows, next))
	}
	ctx.ChargeKernel("gemm", float64(2*active*jb*next), n)
	if deferred := rest - next; deferred > 0 {
		// The next panel offers at least 2·jb spare-cycle windows (two
		// allreduces per column); size chunks to finish within them.
		p.pending = &pendingUpdate{
			vloc: vloc, y: y, j: j, jb: jb,
			col: j + jb + next, end: n,
			chunk:  (deferred + 2*jb - 1) / (2 * jb),
			active: active,
		}
	}
}

// drainChunk applies one chunk of the pending deferred update; it is the
// spare-cycle hook handed to AllreduceOverlap. No-op when nothing is
// pending (e.g. during the crossover panel's allreduces).
func (p *pd) drainChunk() {
	pu := p.pending
	if pu == nil {
		return
	}
	ctx := p.comm.Ctx()
	c := min(pu.chunk, pu.end-pu.col)
	if ctx.HasData() {
		blas.Dgemm(blas.NoTrans, blas.NoTrans, -1,
			pu.vloc, pu.y.View(0, pu.col-(pu.j+pu.jb), pu.jb, c),
			1, p.in.Local.View(0, pu.col, p.myRows(), c))
	}
	ctx.ChargeKernel("gemm", float64(2*pu.active*pu.jb*c), p.in.N)
	pu.col += c
	if pu.col >= pu.end {
		p.pending = nil
	}
}

// drainAll forces the whole pending update out, at the synchronization
// points where trailing columns are about to be read.
func (p *pd) drainAll() {
	for p.pending != nil {
		p.drainChunk()
	}
}
