//go:build amd64

#include "textflag.h"

// AVX2+FMA kernels of the skinny GEMM path (skinny.go), and their
// AVX-512F twins. Like the level-2 kernels, each mirrors a pure-Go twin
// bit for bit: the same fused multiply-adds in the same order, the same
// lane decomposition, the same reduction. Operands are read where they
// live — no packed strips — so loads and stores are unaligned. The
// macros name their (FP) arguments above the first TEXT: vet's asmdecl
// checks a #define against the TEXT block it follows.

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

// MERGE512 and STORE512 are MERGE and STORE on up to sixteen rows of a
// zmm tile column, the rows in the opmasks K1 (first eight) and K2 (next
// eight): the same element-wise operations, and no access to a row
// outside the masks.
#define MERGE512(lo, hi) \
	VMOVUPD.Z (DI), K1, Z8; \
	VMOVUPD.Z 64(DI), K2, Z9; \
	VMULPD  Z13, Z8, Z8; \
	VMULPD  Z13, Z9, Z9; \
	VFMADD231PD Z12, lo, Z8; \
	VFMADD231PD Z12, hi, Z9; \
	VMOVUPD Z8, K1, (DI); \
	VMOVUPD Z9, K2, 64(DI)

// NNSTEP512 is one step of the zmm tile's l loop after its two loads of
// A: four broadcasts of B, eight FMAs, and the loop's advance and test.
#define NNSTEP512 \
	VBROADCASTSD (BX)(R12*1), Z10; \
	VFMADD231PD  Z8, Z10, Z0; \
	VFMADD231PD  Z9, Z10, Z1; \
	VBROADCASTSD (R9)(R12*1), Z11; \
	VFMADD231PD  Z8, Z11, Z2; \
	VFMADD231PD  Z9, Z11, Z3; \
	VBROADCASTSD (R10)(R12*1), Z10; \
	VFMADD231PD  Z8, Z10, Z4; \
	VFMADD231PD  Z9, Z10, Z5; \
	VBROADCASTSD (R11)(R12*1), Z11; \
	VFMADD231PD  Z8, Z11, Z6; \
	VFMADD231PD  Z9, Z11, Z7; \
	ADDQ R8, DI; \
	ADDQ $8, R12; \
	CMPQ R12, CX

#define STORE512(lo, hi) \
	VMULPD  Z12, lo, lo; \
	VMULPD  Z12, hi, hi; \
	VMOVUPD lo, K1, (DI); \
	VMOVUPD hi, K2, 64(DI)

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

// TNPAIR adds the column pair (lo, hi) of A, four rows from byte offset
// AX, against the three broadcast columns of B: the low half of each
// zmm accumulator is lo's ymm accumulator of the AVX2 kernel, the high
// half hi's.
#define TNPAIR(lo, hi, acc0, acc1, acc2) \
	VMOVUPD (lo)(AX*1), Y15; \
	VINSERTF64X4 $1, (hi)(AX*1), Z15, Z15; \
	VFMADD231PD Z12, Z15, acc0; \
	VFMADD231PD Z13, Z15, acc1; \
	VFMADD231PD Z14, Z15, acc2

// TNFOLD512 splits the two pair accumulators of one column of the tile
// back into the four ymm accumulators of the AVX2 kernel and runs its
// fold on them.
#define TNFOLD512(p01, p23, r0, r2) \
	VEXTRACTF64X4 $1, p01, Y6; \
	VEXTRACTF64X4 $1, p23, Y7; \
	TNFOLD(r0, Y6, r2, Y7)

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

// func gemmNN16x4Asm512(tiles, k int, a *float64, lda int, b *float64, ldb int, c *float64, ldc, nc int, alpha, beta float64)
//
// gemmNN8x4Asm's 8·tiles rows in tiles of up to sixteen: two zmm
// accumulators per column hold the rows whose FMA chains the AVX2 kernel
// runs eight at a time, and every element sees the same operations in
// the same order, so the result is that kernel's bit for bit. A first
// tile of the rows up to the next 64-byte boundary of C makes every
// other tile's loads and stores of C whole cache lines; it and the last
// tile are masked to their rows.
TEXT ·gemmNN16x4Asm512(SB), NOSPLIT, $0-88
	MOVQ tiles+0(FP), AX
	SHLQ $3, AX              // rows left
	MOVQ k+8(FP), CX
	SHLQ $3, CX
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
	VBROADCASTSD alpha+72(FP), Z12
	VBROADCASTSD beta+80(FP), Z13
	MOVQ BX, R9
	MOVQ BX, R10
	MOVQ BX, R11
	CMPQ R14, $2
	JLT  znhead
	ADDQ R12, R9
	MOVQ R9, R10
	MOVQ R9, R11
	CMPQ R14, $3
	JLT  znhead
	ADDQ R12, R10
	MOVQ R10, R11
	CMPQ R14, $4
	JLT  znhead
	ADDQ R12, R11
znhead:
	MOVQ DX, R15             // R15: rows of this tile; first the
	NEGQ R15                 // rows up to C's next 64-byte boundary
	ANDQ $63, R15
	SHRQ $3, R15
	JNZ  znmask
znrows:
	MOVQ    $16, R15
	CMPQ    AX, R15
	CMOVQLT AX, R15
znmask:
	MOVQ CX, R12             // K2:K1 = 2^R15 − 1
	MOVQ $16, CX
	SUBQ R15, CX
	MOVL $0xffff, DI
	SHRL CX, DI
	KMOVW DI, K1
	SHRL $8, DI
	KMOVW DI, K2
	MOVQ R12, CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ SI, DI
	XORQ R12, R12
	CMPQ R15, $16
	JLT  zmloop
znloop:
	VMOVUPD      (DI), Z8
	VMOVUPD      64(DI), Z9
	NNSTEP512
	JLT  znloop
	JMP  znmerge
zmloop:
	VMOVUPD.Z    (DI), K1, Z8
	VMOVUPD.Z    64(DI), K2, Z9
	NNSTEP512
	JLT  zmloop
znmerge:
	MOVQ  DX, DI
	MOVQ  beta+80(FP), R12
	SHLQ  $1, R12            // zero iff β = ±0
	JZ    znstore
	MERGE512(Z0, Z1)
	CMPQ R14, $2
	JLT  znnext
	ADDQ R13, DI
	MERGE512(Z2, Z3)
	CMPQ R14, $3
	JLT  znnext
	ADDQ R13, DI
	MERGE512(Z4, Z5)
	CMPQ R14, $4
	JLT  znnext
	ADDQ R13, DI
	MERGE512(Z6, Z7)
	JMP  znnext
znstore:
	STORE512(Z0, Z1)
	CMPQ R14, $2
	JLT  znnext
	ADDQ R13, DI
	STORE512(Z2, Z3)
	CMPQ R14, $3
	JLT  znnext
	ADDQ R13, DI
	STORE512(Z4, Z5)
	CMPQ R14, $4
	JLT  znnext
	ADDQ R13, DI
	STORE512(Z6, Z7)
znnext:
	LEAQ (SI)(R15*8), SI
	LEAQ (DX)(R15*8), DX
	SUBQ R15, AX
	JNZ  znrows
	VZEROUPPER
	RET

// func gemmTN4x3Asm512(steps int, a0, a1, a2, a3, b0, b1, b2, c *float64, ldc int, alpha float64)
//
// gemmTN4x3Asm with the columns of A in pairs: each zmm accumulator is
// two of that kernel's ymm accumulators side by side — the pair's two
// columns, loaded as a ymm and a 256-bit insert, against one column of
// B broadcast to both halves — so six FMAs do the work of twelve. The
// halves are split off and folded by TNFOLD as before.
TEXT ·gemmTN4x3Asm512(SB), NOSPLIT, $0-88
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
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	XORQ AX, AX
ztnloop:
	VBROADCASTF64X4 (R10)(AX*1), Z12
	VBROADCASTF64X4 (R11)(AX*1), Z13
	VBROADCASTF64X4 (R12)(AX*1), Z14
	TNPAIR(SI, DI, Z0, Z2, Z4)
	TNPAIR(R8, R9, Z1, Z3, Z5)
	ADDQ $32, AX
	DECQ CX
	JNZ  ztnloop
	TNFOLD512(Z0, Z1, Y0, Y1)
	ADDQ R13, DX
	TNFOLD512(Z2, Z3, Y2, Y3)
	ADDQ R13, DX
	TNFOLD512(Z4, Z5, Y4, Y5)
	VZEROUPPER
	RET
