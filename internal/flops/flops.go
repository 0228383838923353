// Package flops centralizes the floating-point operation counts used both
// by the cost-only simulation kernels and by the analytic performance
// model of the paper's Section IV. Counts follow the standard LAPACK
// working notes conventions (one flop = one add or one multiply).
package flops

// GEQRF returns the flop count of a Householder QR factorization of an
// m×n matrix (R and the implicit V factor): 2mn² − 2n³/3 for m ≥ n.
func GEQRF(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	if m >= n {
		return 2*fm*fn*fn - 2.0/3.0*fn*fn*fn
	}
	// Wide case (used by CAQR trailing pieces): count via the standard
	// formula with the roles swapped for the square part.
	return 2*fn*fm*fm - 2.0/3.0*fm*fm*fm
}

// ORGQR returns the flop count of forming the explicit m×n Q factor from
// n reflectors: 2mn² − 2n³/3 (same leading order as GEQRF).
func ORGQR(m, n int) float64 {
	return GEQRF(m, n)
}

// StackQR returns the flop count of the TSQR reduction kernel: the QR
// factorization of two stacked n×n upper triangular matrices [R1; R2],
// exploiting the triangular structure. The structured count is 2n³/3 plus
// lower-order terms (Demmel et al., CAQR technical report).
func StackQR(n int) float64 {
	fn := float64(n)
	return 2.0 / 3.0 * fn * fn * fn
}

// TPQRT2 returns the exact flop count of the unblocked structured stack
// factorization Dtpqrt2 of two n×n triangles, counting what the kernel
// executes: eliminating column j costs 3(j+1)+3 in Dlarfg (norm, scale
// and the beta/tau scalars) and each of the n−1−j trailing columns pays
// a length-(j+1) dot and axpy plus two scalar ops, 4(j+1)+2. The closed
// form of Σ_{j=0}^{n−1} [3(j+1)+3 + (n−1−j)(4(j+1)+2)] is below; its
// leading term is the familiar 2n³/3 of StackQR, but the exact value is
// what TimeKernel telemetry divides by, so rate numbers are not inflated
// by the O(n²) slack of the asymptotic model.
func TPQRT2(n int) float64 {
	fn := float64(n)
	s1 := fn * (fn + 1) / 2
	s2 := fn * (fn + 1) * (2*fn + 1) / 6
	return (4*fn+1)*s1 + 3*fn + 2*fn*fn - 4*s2
}

// TPQRT returns the exact flop count of the blocked structured stack
// factorization Dtpqrt with panel width nb, mirroring the implemented
// algorithm: per panel, the unblocked elimination restricted to the
// panel, then (when trailing columns remain) the T build, the two
// (j+jb)×jb×rest gemms, the jb-order trmm and the jb×rest subtraction.
// Assumes no tau underflows to zero (the generic case).
func TPQRT(n, nb int) float64 {
	if nb <= 0 {
		nb = 32
	}
	var f float64
	for j := 0; j < n; j += nb {
		jb := min(nb, n-j)
		for c := 0; c < jb; c++ {
			col := float64(j + c)
			f += 3*(col+1) + 3 + float64(j+jb-(j+c)-1)*(4*(col+1)+2)
		}
		rest := float64(n - j - jb)
		if rest == 0 {
			continue
		}
		for i := 1; i < jb; i++ {
			rows := float64(j + i + 1)
			f += float64(i)*(2*rows+1) + float64(i)*float64(i) // dots + trmv
		}
		fj, fb := float64(j), float64(jb)
		f += 2 * (fj + fb) * fb * rest  // W = Vpᵀ·C2
		f += TRMM(jb, int(rest), false) // W = Tᵀ·W
		f += 2 * fb * rest              // C1 −= W
		f += 2 * (fj + fb) * fb * rest  // C2 −= Vp·W
	}
	return f
}

// StackQRApplyQ returns the flop count of applying the Q factor of a
// StackQR reduction step when reconstructing the explicit TSQR Q: the same
// structured count as the factorization itself.
func StackQRApplyQ(n int) float64 {
	return StackQR(n)
}

// GETF2 returns the flop count of LU factorization with partial pivoting
// of an m×n matrix (m ≥ n): mn² − n³/3.
func GETF2(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return fm*fn*fn - fn*fn*fn/3
}

// ORMQR returns the flop count of applying k Householder reflectors of an
// m-row factorization to an m×n matrix: 4mnk − 2nk² (LAPACK DORMQR).
func ORMQR(m, n, k int) float64 {
	fm, fn, fk := float64(m), float64(n), float64(k)
	return 4*fm*fn*fk - 2*fn*fk*fk
}

// StackApply returns the flop count of applying the implicit Q of a
// StackQR reduction (two stacked n×n triangles) to a stacked pair of
// n×cols blocks, exploiting the triangular reflector structure: ≈2n²·cols.
func StackApply(n, cols int) float64 {
	fn, fc := float64(n), float64(cols)
	return 2 * fn * fn * fc
}

// GEMM returns the flop count of C += A·B for an m×k by k×n product.
func GEMM(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}

// TRMM returns the exact flop count of the triangular multiply
// B = op(T)·B or B·op(T) with T upper triangular of order n and m the
// other dimension of B: per vector against the triangle, n(n+1)/2
// multiplies and n(n−1)/2 adds — n² flops — dropping the n diagonal
// multiplies when T is unit-diagonal. The alpha scaling is excluded
// (alpha = 1 on every hot path).
func TRMM(n, m int, unit bool) float64 {
	fn, fm := float64(n), float64(m)
	if unit {
		return fm * fn * (fn - 1)
	}
	return fm * fn * fn
}

// TRSM returns the exact flop count of the triangular solve
// op(T)·X = B or X·op(T) = B: substitution costs n(n−1)/2 multiplies,
// n(n−1)/2 subtractions and n divides per vector — the same n² total as
// TRMM, likewise n(n−1) for unit diagonal (no divides).
func TRSM(n, m int, unit bool) float64 {
	return TRMM(n, m, unit)
}

// SYRK returns the flop count of the symmetric rank-k update of an
// order-n triangle: n(n+1)/2 output elements at 2k flops each.
func SYRK(n, k int) float64 {
	return float64(n) * (float64(n) + 1) * float64(k)
}

// TSQRCritical returns the flop count on the critical path of TSQR over P
// domains of an M×N matrix, R-factor only (paper Table I):
// (2MN² − 2N³/3)/P + 2/3·log₂(P)·N³.
func TSQRCritical(m, n, p int) float64 {
	return GEQRF(m, n)/float64(p) + StackQR(n)*Log2(p)
}

// QR2Critical returns the per-domain flop count of the ScaLAPACK-style QR2
// algorithm (paper Table I): (2MN² − 2N³/3)/P.
func QR2Critical(m, n, p int) float64 {
	return GEQRF(m, n) / float64(p)
}

// Log2 returns log₂(p) as a float, with Log2(1) == 0. It is the tree-depth
// term of the paper's communication model; p must be >= 1.
func Log2(p int) float64 {
	if p < 1 {
		panic("flops: Log2 of non-positive domain count")
	}
	d := 0
	for q := p - 1; q > 0; q >>= 1 {
		d++
	}
	// Ceil(log2(p)) for message counting on binomial trees.
	return float64(d)
}
