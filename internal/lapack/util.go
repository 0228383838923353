package lapack

import "gridqr/internal/matrix"

// Dlacpy copies the indicated triangle (or all) of a into b.
type CopyKind int

const (
	CopyAll CopyKind = iota
	CopyUpper
	CopyLower
)

// Dlacpy copies part of a into b according to kind; shapes must match.
func Dlacpy(kind CopyKind, a, b *matrix.Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("lapack: Dlacpy shape mismatch")
	}
	switch kind {
	case CopyAll:
		matrix.Copy(b, a)
	case CopyUpper:
		for j := 0; j < a.Cols; j++ {
			for i := 0; i <= min(j, a.Rows-1); i++ {
				b.Set(i, j, a.At(i, j))
			}
		}
	case CopyLower:
		for j := 0; j < a.Cols; j++ {
			for i := j; i < a.Rows; i++ {
				b.Set(i, j, a.At(i, j))
			}
		}
	}
}

// NormalizeRSigns flips the sign of rows of R (and the matching columns of
// Q, when non-nil) so every diagonal entry of R is nonnegative. This makes
// the QR factorization unique and, as the paper notes, makes the TSQR
// reduction operation commutative — which lets tests compare R factors
// computed with different reduction trees.
func NormalizeRSigns(r, q *matrix.Dense) {
	n := min(r.Rows, r.Cols)
	for i := 0; i < n; i++ {
		if r.At(i, i) >= 0 {
			continue
		}
		for j := i; j < r.Cols; j++ {
			r.Set(i, j, -r.At(i, j))
		}
		if q != nil {
			col := q.Col(i)
			for k := range col {
				col[k] = -col[k]
			}
		}
	}
}
