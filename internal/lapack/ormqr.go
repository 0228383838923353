package lapack

import (
	"gridqr/internal/blas"
	"gridqr/internal/matrix"
)

// Dorm2r applies op(Q) from the left to C, where Q is the orthogonal
// factor implicitly stored in a (reflectors below the diagonal) and tau
// after Dgeqr2/Dgeqrf: C = op(Q)·C. Unblocked.
//
// With Q = H_0·H_1···H_{k−1}: applying Q uses reflectors in reverse
// order, applying Qᵀ uses them forward.
func Dorm2r(trans blas.Transpose, a *matrix.Dense, tau []float64, c *matrix.Dense) {
	m := a.Rows
	k := min(m, a.Cols)
	if c.Rows != m {
		panic("lapack: Dorm2r shape mismatch")
	}
	if len(tau) < k {
		panic("lapack: Dorm2r tau too short")
	}
	apply := func(j int) {
		if tau[j] == 0 {
			return
		}
		Dlarf(tau[j], a.Col(j)[j+1:], c.View(j, 0, m-j, c.Cols))
	}
	if trans == blas.Trans {
		for j := 0; j < k; j++ {
			apply(j)
		}
	} else {
		for j := k - 1; j >= 0; j-- {
			apply(j)
		}
	}
}

// blockReflectorPays is the one rule that picks how k reflectors over a
// rows-tall block are applied to a rows×cols C: as one compact-WY block
// reflector (Dlarft, then Dlarfb's two GEMMs and three k-wide triangular
// multiplies) or as k rank-one sweeps (Dorm2r). Three extents, three
// conditions, each measured (DESIGN.md "Panel kernels" has the table,
// k = 16…96, 64…16384 rows, 1…4096 columns; re-measured when the GEMMs
// moved to the skinny kernels, which halved the block reflector's time):
//   - C is at least as wide as the block, or the rows·k² flops of forming
//     T buy too few columns (2.6–5 times slower on one right-hand side);
//   - the block is at least 512 rows tall. The GEMMs no longer pack and
//     run at their rate at any height; what a short block cannot
//     amortise now is the three triangular multiplies, k²·cols flops of
//     scalar code each (1.0–1.9 times Dorm2r's time at 128 and 256 rows
//     when cols = k, 0.9–3.4 at 64 rows whatever the width);
//   - C fills half of foldBlockBytes (2048 rows at 64 columns, 8192 at
//     16). This one is now conservative: it was the size of C at which
//     the sweeps, which matched the packed GEMMs while C sat in L2, fell
//     behind; against the skinny kernels they are behind from 512 rows
//     (0.49–0.93 of Dorm2r's time at 512–2048 rows when cols = k,
//     0.22–0.65 where the rule sends them). ROADMAP item 7(d) carries
//     the corner.
func blockReflectorPays(rows, k, cols int) bool {
	return cols >= k && rows >= 512 && rows*cols >= foldBlockBytes/2/8
}

// Dormqr applies op(Q) from the left to C like Dorm2r. With nb <= 0 each
// DefaultBlock-wide block of reflectors goes through blockReflectorPays:
// one block reflector where the compact-WY form pays, Dorm2r where it
// does not. nb > 0 is LAPACK's fixed choice — Dorm2r when nb >= k, block
// reflectors of width nb otherwise — for a caller whose result bits must
// not move with the rule (CAQR's forward trailing update).
func Dormqr(trans blas.Transpose, a *matrix.Dense, tau []float64, c *matrix.Dense, nb int) {
	ormqr(trans, a, tau, c, nb, false)
}

// ormqr is Dormqr; seedOnly (NoTrans only) promises that C is zero below
// its top min(m, k) rows, which the block reflector applied first then
// never reads.
func ormqr(trans blas.Transpose, a *matrix.Dense, tau []float64, c *matrix.Dense, nb int, seedOnly bool) {
	m := a.Rows
	k := min(m, a.Cols)
	if c.Rows != m {
		panic("lapack: Dormqr shape mismatch")
	}
	byRule := nb <= 0
	if byRule {
		nb = DefaultBlock
	} else if nb >= k {
		Dorm2r(trans, a, tau, c)
		return
	}
	// T's lower triangle is never read, so pooled dirty storage is safe.
	t, tP := getMat(nb, nb)
	defer putWork(tP)
	// Qᵀ takes the blocks first to last, Q last to first.
	j, step := 0, nb
	if trans == blas.NoTrans {
		j, step = (k-1)/nb*nb, -nb
	}
	for ; j >= 0 && j < k; j += step {
		jb := min(nb, k-j)
		v, cj := a.View(j, j, m-j, jb), c.View(j, 0, m-j, c.Cols)
		if byRule && !blockReflectorPays(m-j, jb, c.Cols) {
			Dorm2r(trans, v, tau[j:j+jb], cj)
		} else {
			tb := t.View(0, 0, jb, jb)
			Dlarft(v, tau[j:j+jb], tb)
			larfb(trans, v, tb, cj, seedOnly)
		}
		seedOnly = false // C is dense from row j down now
	}
}

// Dorgqr forms the explicit thin m×n Q factor from the first n reflectors
// stored in a after Dgeqr2/Dgeqrf. It returns a fresh matrix; a is not
// modified.
func Dorgqr(a *matrix.Dense, tau []float64, n int) *matrix.Dense {
	m := a.Rows
	k := min(m, a.Cols)
	if n > m || n < k {
		panic("lapack: Dorgqr invalid column count")
	}
	q := matrix.New(m, n)
	for i := 0; i < n; i++ {
		q.Set(i, i, 1)
	}
	ormqr(blas.NoTrans, a, tau[:k], q, 0, n == k)
	return q
}
