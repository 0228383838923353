package blas

import (
	"math"
	"sync"

	"gridqr/internal/matrix"
)

// The skinny path: the two products a block reflector is made of —
// C ← βC + αA·B with a short inner dimension (C2 −= V2·W) and
// C ← βC + αAᵀ·B with a short output over a long one (W += V2ᵀ·C2) —
// computed on the operands where they lie. Nothing is packed: in the
// first the columns of A are already contiguous in the vector direction,
// in the second both operands are; what the Goto loop nest buys a square
// product (operand reuse out of packed, cache-resident strips) these
// shapes get from an operand that is a few KiB to begin with. Both run
// on the calling goroutine — one call is a cache block's update,
// microseconds to a millisecond — and both give every element of C the
// same operation sequence whichever tile or edge it falls in, fixed by
// m and k alone, so computing C in column chunks of any width reproduces
// one wide call bit for bit.
//
// The register kernels have two implementations, selected by
// useAsmKernel like level 2: skinny_kernel_amd64.s and the math.FMA
// mirrors below, which reproduce the assembly bit for bit. With
// AVX-512F, useWideKernel swaps in the assembly's 512-bit twins, which
// reproduce it bit for bit too.

const (
	// skinnyDim is the short extent the kernels are built for — the
	// inner dimension of A·B, the output rows of Aᵀ·B — up to which gemm
	// prefers them to the packed engine at any size: the reflector-block
	// widths. A longer one is processed skinnyDim at a time.
	skinnyDim = 64
	// skinnyL1 is the footprint, in float64s, of the operand the row
	// chunking tries to keep cached while the other streams past: 16 KiB,
	// half of the smallest L1 the kernels meet.
	skinnyL1 = 2048
)

// scaleCols computes C = β·C; β = 0 overwrites, so stale NaN never leaks.
func scaleCols(beta float64, c *matrix.Dense) {
	if beta == 1 {
		return
	}
	for j := 0; j < c.Cols; j++ {
		if cj := c.Col(j); beta == 0 {
			clear(cj)
		} else {
			dscalKernel(beta, cj)
		}
	}
}

// gemmNN computes C = α·A·B + β·C, reading and writing each element of C
// exactly once per skinnyDim columns of A: s = Σ_l A[i,l]·B[l,j] as one
// FMA chain in l order from zero, then C[i,j] = fma(α, s, β·C[i,j]), or
// α·s without reading C when β = 0.
func gemmNN(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	k := a.Cols
	if alpha == 0 || k == 0 {
		scaleCols(beta, c)
		return
	}
	for l0 := 0; l0 < k; l0 += skinnyDim {
		gemmNNBlock(alpha, a.Data[l0*a.Stride:], a.Stride, b.Data[l0:], b.Stride, min(skinnyDim, k-l0), beta, c)
		beta = 1
	}
}

// gemmNNBlock is gemmNN for k ≤ skinnyDim columns of A. Rows go in
// chunks whose k columns of A (skinnyL1) stay in L1 while every
// four-column strip of C passes over them — but at least 128 rows, under
// which a C that streams from memory comes in column segments too short
// to prefetch. The last m mod 8 rows run the same kernel on a
// zero-padded copy (gemmNNEdge). No element's arithmetic depends on the
// chunking.
func gemmNNBlock(alpha float64, a []float64, lda int, b []float64, ldb, k int, beta float64, c *matrix.Dense) {
	m, n, ldc := c.Rows, c.Cols, c.Stride
	m8 := m &^ 7
	chunk := max(128, skinnyL1/k&^7)
	for i0 := 0; i0 < m8; i0 += chunk {
		tiles := min(chunk, m8-i0) / 8
		for j0 := 0; j0 < n; j0 += 4 {
			gemmNN8x4(tiles, k, a[i0:], lda, b[j0*ldb:], ldb, c.Data[j0*ldc+i0:], ldc, min(4, n-j0), alpha, beta)
		}
	}
	if m > m8 {
		gemmNNEdge(alpha, a[m8:], lda, b, ldb, k, beta, c.View(m8, 0, m-m8, n))
	}
}

// nnEdge is the scratch of one edge tile: the padded rows of A and of
// four columns of C.
type nnEdge struct {
	a [8 * skinnyDim]float64
	c [8 * 4]float64
}

// nnEdgePool keeps the edge scratch off the stack: 4.6 KB in the frame
// of every skinny product would make the first block-reflector update
// of each new goroutine grow its stack.
var nnEdgePool = sync.Pool{New: func() any { return new(nnEdge) }}

// gemmNNEdge runs the 8×4 kernel on the r < 8 rows of c, with A's rows
// and C's copied into 8-row scratch tiles whose other rows are zero.
func gemmNNEdge(alpha float64, a []float64, lda int, b []float64, ldb, k int, beta float64, c *matrix.Dense) {
	r, n, ldc := c.Rows, c.Cols, c.Stride
	e := nnEdgePool.Get().(*nnEdge)
	defer nnEdgePool.Put(e)
	for l := 0; l < k; l++ {
		ae := e.a[8*l : 8*l+8]
		clear(ae[copy(ae[:r], a[l*lda:]):])
	}
	for j0 := 0; j0 < n; j0 += 4 {
		nc := min(4, n-j0)
		edge := c.Data[j0*ldc:]
		for j := 0; j < nc && beta != 0; j++ {
			ce := e.c[8*j : 8*j+8]
			clear(ce[copy(ce[:r], edge[j*ldc:]):])
		}
		gemmNN8x4(1, k, e.a[:], 8, b[j0*ldb:], ldb, e.c[:], 8, nc, alpha, beta)
		for j := 0; j < nc; j++ {
			copy(edge[j*ldc:j*ldc+r], e.c[8*j:])
		}
	}
}

// gemmNN8x4 computes tiles 8-row tiles of an nc ≤ 4 column strip of C.
func gemmNN8x4(tiles, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc, nc int, alpha, beta float64) {
	if useAsmKernel && useWideKernel {
		gemmNN16x4Asm512(tiles, k, &a[0], lda, &b[0], ldb, &c[0], ldc, nc, alpha, beta)
		return
	}
	if useAsmKernel {
		gemmNN8x4Asm(tiles, k, &a[0], lda, &b[0], ldb, &c[0], ldc, nc, alpha, beta)
		return
	}
	gemmNN8x4Go(tiles, k, a, lda, b, ldb, c, ldc, nc, alpha, beta)
}

// gemmNN8x4Go mirrors gemmNN8x4Asm: per element one FMA chain over l
// from zero, then the α/β merge.
func gemmNN8x4Go(tiles, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc, nc int, alpha, beta float64) {
	for t := 0; t < tiles; t++ {
		for j := 0; j < nc; j++ {
			var s [8]float64
			for l, bv := range b[j*ldb : j*ldb+k] {
				av := a[l*lda+8*t : l*lda+8*t+8]
				for r := range s {
					s[r] = math.FMA(av[r], bv, s[r])
				}
			}
			cj := c[j*ldc+8*t : j*ldc+8*t+8]
			for r, v := range s {
				if beta == 0 {
					cj[r] = alpha * v
				} else {
					cj[r] = math.FMA(alpha, v, beta*cj[r])
				}
			}
		}
	}
}

// gemmTN computes C = α·Aᵀ·B + β·C for a k-row A and B. β is applied
// first; then the rows go in chunks (a whole number of 4-row steps, the
// chunk length a function of m and k only) and each chunk adds
// fma(α, s, C[i,j]) where s is the chunk's dot product of column i of A
// and column j of B — four lane-wise FMA chains folded (l0+l1)+(l2+l3).
// The last k mod 4 rows are one more chunk, a sequential FMA chain.
func gemmTN(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	scaleCols(beta, c)
	gemmTNAdd(alpha, a, b, c, false)
}

// gemmTNAdd computes C += α·Aᵀ·B; with upper, only the elements of C on
// and above its diagonal (Dsyrk's diagonal blocks, where B is A and
// m ≤ skinnyDim).
func gemmTNAdd(alpha float64, a, b, c *matrix.Dense, upper bool) {
	m, n, k := c.Rows, c.Cols, a.Rows
	if alpha == 0 || k == 0 {
		return
	}
	// A chunk of every column of A (of skinnyDim of them, when there are
	// more) stays cached while the strips of B stream past it once:
	// 2·skinnyL1 of it, but at least 256 rows — under that the fold that
	// ends each tile's run of FMAs starts to show.
	k4 := k &^ 3
	chunk := max(256, 2*skinnyL1/min(m, skinnyDim)&^3)
	for r0 := 0; r0 < k4; r0 += chunk {
		steps := min(chunk, k4-r0) / 4
		for i0 := 0; i0 < m; i0 += skinnyDim {
			gemmTNChunk(steps, a.Data[i0*a.Stride+r0:], a.Stride, min(skinnyDim, m-i0), b.Data[r0:], b.Stride, n, alpha, c.Data[i0:], c.Stride, upper)
		}
	}
	if k4 == k {
		return
	}
	for j := 0; j < n; j++ {
		bj, cj := b.Col(j)[k4:], c.Col(j)
		if upper {
			cj = cj[:j+1]
		}
		for i := range cj {
			var s float64
			for r, av := range a.Data[i*a.Stride+k4 : i*a.Stride+k] {
				s = math.FMA(av, bj[r], s)
			}
			cj[i] = math.FMA(alpha, s, cj[i])
		}
	}
}

// gemmTNChunk adds α·AᵀB over 4·steps rows into the m×n C, one 4×3 tile
// at a time. An edge tile aliases its missing columns to its last valid
// one and runs on a copy of its corner of C, as does a tile the diagonal
// crosses when only the upper triangle is wanted; tiles wholly under the
// diagonal are then skipped.
func gemmTNChunk(steps int, a []float64, lda, m int, b []float64, ldb, n int, alpha float64, c []float64, ldc int, upper bool) {
	var ao [4]int
	var bo [3]int
	for j0 := 0; j0 < n; j0 += 3 {
		nc := min(3, n-j0)
		for j := range bo {
			bo[j] = (j0 + min(j, nc-1)) * ldb
		}
		for i0 := 0; i0 < m && !(upper && i0 >= j0+nc); i0 += 4 {
			mc := min(4, m-i0)
			for i := range ao {
				ao[i] = (i0 + min(i, mc-1)) * lda
			}
			tile := c[j0*ldc+i0:]
			if mc == 4 && nc == 3 && !(upper && i0+3 > j0) {
				gemmTN4x3(steps, a, &ao, b, &bo, tile, ldc, alpha)
				continue
			}
			var ce [4 * 3]float64
			var rows [3]int // of each column of the tile, those wanted
			for j := 0; j < nc; j++ {
				rows[j] = mc
				if upper {
					rows[j] = max(0, min(mc, j0+j+1-i0))
				}
				copy(ce[4*j:4*j+rows[j]], tile[j*ldc:])
			}
			gemmTN4x3(steps, a, &ao, b, &bo, ce[:], 4, alpha)
			for j := 0; j < nc; j++ {
				copy(tile[j*ldc:j*ldc+rows[j]], ce[4*j:])
			}
		}
	}
}

// gemmTN4x3 adds α times the 4·steps-row dot products of the columns of
// a at offsets ao and of b at offsets bo into the 4×3 tile at c.
func gemmTN4x3(steps int, a []float64, ao *[4]int, b []float64, bo *[3]int, c []float64, ldc int, alpha float64) {
	if useAsmKernel && useWideKernel {
		gemmTN4x3Asm512(steps, &a[ao[0]], &a[ao[1]], &a[ao[2]], &a[ao[3]], &b[bo[0]], &b[bo[1]], &b[bo[2]], &c[0], ldc, alpha)
		return
	}
	if useAsmKernel {
		gemmTN4x3Asm(steps, &a[ao[0]], &a[ao[1]], &a[ao[2]], &a[ao[3]], &b[bo[0]], &b[bo[1]], &b[bo[2]], &c[0], ldc, alpha)
		return
	}
	gemmTN4x3Go(steps, a, ao, b, bo, c, ldc, alpha)
}

// gemmTN4x3Go mirrors gemmTN4x3Asm: four lane-wise FMA chains per
// element, folded (l0+l1)+(l2+l3), one FMA into C.
func gemmTN4x3Go(steps int, a []float64, ao *[4]int, b []float64, bo *[3]int, c []float64, ldc int, alpha float64) {
	for j, bj := range bo {
		bv := b[bj : bj+4*steps]
		for i, ai := range ao {
			av := a[ai : ai+4*steps]
			var l0, l1, l2, l3 float64
			for p := 0; p < len(bv); p += 4 {
				l0 = math.FMA(av[p], bv[p], l0)
				l1 = math.FMA(av[p+1], bv[p+1], l1)
				l2 = math.FMA(av[p+2], bv[p+2], l2)
				l3 = math.FMA(av[p+3], bv[p+3], l3)
			}
			c[j*ldc+i] = math.FMA(alpha, (l0+l1)+(l2+l3), c[j*ldc+i])
		}
	}
}
