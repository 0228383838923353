package lapack

import (
	"gridqr/internal/blas"
	"gridqr/internal/matrix"
)

// Dtpqrt is the blocked variant of Dtpqrt2 (LAPACK's DTPQRT): the stacked
// upper triangular pair [r1; r2] is factored in panels of nb columns, and
// trailing columns are updated with block reflectors so most of the work
// becomes matrix-matrix products. Outputs are bit-compatible in layout
// with Dtpqrt2 (r1 ← R, r2 ← V upper triangular, tau per column), so the
// column-wise ApplyStackQ works unchanged on the result.
func Dtpqrt(r1, r2 *matrix.Dense, tau []float64, nb int) {
	n := r1.Rows
	if r1.Cols != n || r2.Rows != n || r2.Cols != n {
		panic("lapack: Dtpqrt operands must be square and equal size")
	}
	if len(tau) < n {
		panic("lapack: Dtpqrt tau too short")
	}
	if nb <= 0 {
		nb = 32
	}
	for j := 0; j < n; j += nb {
		jb := min(nb, n-j)
		// Factor the panel with the unblocked kernel, restricted to its
		// own columns: columns j..j+jb of [r1; r2], where the V entries
		// live in r2 rows 0..j+jb.
		tpqrt2Panel(r1, r2, tau, j, jb)
		rest := n - j - jb
		if rest == 0 {
			continue
		}
		// Block-reflector update of the trailing columns. The panel's
		// reflector c has an implicit unit at r1 row j+c and its stored
		// part in r2 rows 0..j+c (column j+c): a (j+jb)×jb trapezoid.
		vp := r2.View(0, j, j+jb, jb)
		t, tP := getMat(jb, jb)
		tpqrtT(vp, tau[j:j+jb], &t)
		// W = C1[j:j+jb, rest] + Vpᵀ·C2[0:j+jb, rest]
		c1 := r1.View(j, j+jb, jb, rest)
		c2 := r2.View(0, j+jb, j+jb, rest)
		w, wP := getMat(jb, rest)
		matrix.Copy(&w, c1)
		blas.Dgemm(blas.Trans, blas.NoTrans, 1, vp, c2, 1, &w)
		// W ← Tᵀ·W
		blas.Dtrmm(blas.Left, blas.Trans, false, 1, &t, &w)
		// C1 −= W ; C2 −= Vp·W
		for c := 0; c < rest; c++ {
			blas.Daxpy(-1, w.Col(c), c1.Col(c))
		}
		blas.Dgemm(blas.NoTrans, blas.NoTrans, -1, vp, &w, 1, c2)
		putWork(wP)
		putWork(tP)
	}
}

// tpqrt2Panel runs the unblocked stacked elimination on columns
// [j, j+jb), touching only those columns. Reflector c zeroes
// r2[0:c+1, c] against the diagonal element r1[c, c] and updates the
// panel's columns k > c of [r1; r2]:
//
//	w_k           = r1[c,k] + b_cᵀ·r2[0:c+1, k]
//	r1[c,k]      −= t·w_k
//	r2[0:c+1, k] −= t·w_k·b_c
//
// The known-zero wedge below row c of column k never enters: rows 0..c of
// the columns right of c are a dense (c+1)×(j+jb−c−1) rectangle of r2,
// swept once by Dgemv for every w_k and once by Dger for the update.
func tpqrt2Panel(r1, r2 *matrix.Dense, tau []float64, j, jb int) {
	wP := getWork(jb)
	defer putWork(wP)
	for c := j; c < j+jb; c++ {
		bc := r2.Col(c)[:c+1]
		beta, t := Dlarfg(r1.At(c, c), bc)
		tau[c] = t
		r1.Set(c, c, beta)
		rest := j + jb - c - 1
		if t == 0 || rest == 0 {
			continue
		}
		w := (*wP)[:rest]
		row := r1.Data[(c+1)*r1.Stride+c:] // r1[c, c+1:], one element per stride
		for k := range w {
			w[k] = row[k*r1.Stride]
		}
		rect := r2.View(0, c+1, c+1, rest)
		blas.Dgemv(blas.Trans, 1, rect, bc, 1, w)
		for k := range w {
			w[k] *= t
			row[k*r1.Stride] -= w[k]
		}
		blas.Dger(-1, bc, w, rect)
	}
}

// tpqrtT builds the jb×jb T factor of a stacked panel from its stored V
// trapezoid and taus, writing into the caller-provided t (pooled, dirty
// storage is fine: every upper-triangle entry is written, the strict
// lower triangle is never read downstream). Because the unit parts of
// distinct reflectors live in distinct rows, only the V block
// contributes to the cross products.
func tpqrtT(vp *matrix.Dense, tau []float64, t *matrix.Dense) {
	jb := vp.Cols
	for i := 0; i < jb; i++ {
		t.Set(i, i, tau[i])
		if i == 0 {
			continue
		}
		col := t.Col(i)[:i]
		if tau[i] == 0 {
			for c := range col {
				col[c] = 0
			}
			continue
		}
		// col = −tau_i · Vp[:, 0:i]ᵀ · v_i, with v_i's stored rows only.
		rows := vp.Rows - vp.Cols + i + 1 // v_i nonzero rows: 0..(j+i)
		vi := vp.Col(i)[:rows]
		for c := 0; c < i; c++ {
			col[c] = -tau[i] * blas.Ddot(vp.Col(c)[:rows], vi)
		}
		blas.Dtrmv(blas.NoTrans, t.View(0, 0, i, i), col)
	}
}
