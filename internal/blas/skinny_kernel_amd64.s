//go:build amd64

#include "textflag.h"

// AVX2+FMA kernels of the skinny GEMM path (skinny.go). Like the level-2
// kernels, each mirrors a pure-Go twin bit for bit: the same fused
// multiply-adds in the same order, the same lane decomposition, the same
// reduction. Operands are read where they live — no packed strips — so
// loads and stores are unaligned.

// MERGE writes one column of the NN tile: c = α·acc + β·c over the eight
// rows at (DI). STORE is its β = 0 form, which never reads C.
#define MERGE(lo, hi) \
	VMOVUPD (DI), Y8; \
	VMOVUPD 32(DI), Y9; \
	VMULPD  Y13, Y8, Y8; \
	VMULPD  Y13, Y9, Y9; \
	VFMADD231PD Y12, lo, Y8; \
	VFMADD231PD Y12, hi, Y9; \
	VMOVUPD Y8, (DI); \
	VMOVUPD Y9, 32(DI)

#define STORE(lo, hi) \
	VMULPD  Y12, lo, lo; \
	VMULPD  Y12, hi, hi; \
	VMOVUPD lo, (DI); \
	VMOVUPD hi, 32(DI)

// TNROW adds one column of A (at base, four rows from byte offset AX)
// against the three loaded columns of B into its accumulators.
#define TNROW(base, acc0, acc1, acc2) \
	VMOVUPD (base)(AX*1), Y15; \
	VFMADD231PD Y12, Y15, acc0; \
	VFMADD231PD Y13, Y15, acc1; \
	VFMADD231PD Y14, Y15, acc2

// TNFOLD reduces the four lane-wise accumulators of one column of the
// tile to their sums (l0+l1)+(l2+l3), one per lane of Y14, and adds α
// times them into the four rows of C at (DX).
#define TNFOLD(r0, r1, r2, r3) \
	VHADDPD r1, r0, Y12; \
	VHADDPD r3, r2, Y13; \
	VPERM2F128 $0x20, Y13, Y12, Y14; \
	VPERM2F128 $0x31, Y13, Y12, Y15; \
	VADDPD Y15, Y14, Y14; \
	VBROADCASTSD alpha+80(FP), Y12; \
	VMOVUPD (DX), Y13; \
	VFMADD231PD Y12, Y14, Y13; \
	VMOVUPD Y13, (DX)

// func gemmNN8x4Asm(tiles, k int, a *float64, lda int, b *float64, ldb int, c *float64, ldc, nc int, alpha, beta float64)
//
// C[0:8·tiles, 0:nc] = α·A·B + β·C for nc ≤ 4 columns, one 8×4 register
// tile at a time: eight ymm accumulators (two per column) run the whole
// k loop, each step loading eight rows of one column of A where it lies
// and broadcasting one row of B. Columns nc..3 of the tile alias column
// nc−1 of B and are never stored. β = ±0 stores without reading C.
TEXT ·gemmNN8x4Asm(SB), NOSPLIT, $0-88
	MOVQ tiles+0(FP), AX
	MOVQ k+8(FP), CX
	SHLQ $3, CX              // k·8: the l loop counts byte offsets into B
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R8
	SHLQ $3, R8
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R12
	SHLQ $3, R12
	MOVQ c+48(FP), DX
	MOVQ ldc+56(FP), R13
	SHLQ $3, R13
	MOVQ nc+64(FP), R14
	VBROADCASTSD alpha+72(FP), Y12
	VBROADCASTSD beta+80(FP), Y13
	MOVQ beta+80(FP), R15
	SHLQ $1, R15             // zero iff β = ±0
	MOVQ BX, R9
	MOVQ BX, R10
	MOVQ BX, R11
	CMPQ R14, $2
	JLT  nntile
	ADDQ R12, R9
	MOVQ R9, R10
	MOVQ R9, R11
	CMPQ R14, $3
	JLT  nntile
	ADDQ R12, R10
	MOVQ R10, R11
	CMPQ R14, $4
	JLT  nntile
	ADDQ R12, R11
nntile:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, DI
	XORQ R12, R12
nnloop:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (BX)(R12*1), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD (R9)(R12*1), Y11
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD (R10)(R12*1), Y10
	VFMADD231PD  Y8, Y10, Y4
	VFMADD231PD  Y9, Y10, Y5
	VBROADCASTSD (R11)(R12*1), Y11
	VFMADD231PD  Y8, Y11, Y6
	VFMADD231PD  Y9, Y11, Y7
	ADDQ R8, DI
	ADDQ $8, R12
	CMPQ R12, CX
	JLT  nnloop
	MOVQ  DX, DI
	TESTQ R15, R15
	JZ    nnstore
	MERGE(Y0, Y1)
	CMPQ R14, $2
	JLT  nnnext
	ADDQ R13, DI
	MERGE(Y2, Y3)
	CMPQ R14, $3
	JLT  nnnext
	ADDQ R13, DI
	MERGE(Y4, Y5)
	CMPQ R14, $4
	JLT  nnnext
	ADDQ R13, DI
	MERGE(Y6, Y7)
	JMP  nnnext
nnstore:
	STORE(Y0, Y1)
	CMPQ R14, $2
	JLT  nnnext
	ADDQ R13, DI
	STORE(Y2, Y3)
	CMPQ R14, $3
	JLT  nnnext
	ADDQ R13, DI
	STORE(Y4, Y5)
	CMPQ R14, $4
	JLT  nnnext
	ADDQ R13, DI
	STORE(Y6, Y7)
nnnext:
	ADDQ $64, SI
	ADDQ $64, DX
	DECQ AX
	JNZ  nntile
	VZEROUPPER
	RET

// func gemmTN4x3Asm(steps int, a0, a1, a2, a3, b0, b1, b2, c *float64, ldc int, alpha float64)
//
// C[0:4, 0:3] += α·AᵀB over 4·steps rows: twelve lane-wise dot products
// (four columns of A against three of B, both read in place, seven loads
// per twelve FMAs), folded once at the end.
TEXT ·gemmTN4x3Asm(SB), NOSPLIT, $0-88
	MOVQ steps+0(FP), CX
	MOVQ a0+8(FP), SI
	MOVQ a1+16(FP), DI
	MOVQ a2+24(FP), R8
	MOVQ a3+32(FP), R9
	MOVQ b0+40(FP), R10
	MOVQ b1+48(FP), R11
	MOVQ b2+56(FP), R12
	MOVQ c+64(FP), DX
	MOVQ ldc+72(FP), R13
	SHLQ $3, R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ AX, AX
tnloop:
	VMOVUPD (R10)(AX*1), Y12
	VMOVUPD (R11)(AX*1), Y13
	VMOVUPD (R12)(AX*1), Y14
	TNROW(SI, Y0, Y4, Y8)
	TNROW(DI, Y1, Y5, Y9)
	TNROW(R8, Y2, Y6, Y10)
	TNROW(R9, Y3, Y7, Y11)
	ADDQ $32, AX
	DECQ CX
	JNZ  tnloop
	TNFOLD(Y0, Y1, Y2, Y3)
	ADDQ R13, DX
	TNFOLD(Y4, Y5, Y6, Y7)
	ADDQ R13, DX
	TNFOLD(Y8, Y9, Y10, Y11)
	VZEROUPPER
	RET
