//go:build amd64

#include "textflag.h"

// func fillColAsm(dst *float64, n int, r, step, c uint64)
//
// dst[i] = unitFloat(splitMix64((r + i·step) ^ c)) for i < n, n a
// positive multiple of 4: fillCol's loop, four rows per ymm register.
// The lanes hold r + i·step and advance by 4·step. AVX2 has no 64-bit
// multiply, so each one is three VPMULUDQ: lo·lo + (hi·lo + lo·hi)<<32.
// It has no 64→double conversion either: k = h>>11 < 2^53 is split into
// 32-bit halves, each or-ed under an exponent that makes it an exact
// double already scaled by 2^-52 — (2^52 + lo)·2^-52 and
// (2^84 + hi·2^32)·2^-52 — and
//   (2^84 + hi·2^32)·2^-52 − (2^84 + 2^53)·2^-52 + (2^52 + lo)·2^-52
// is exact at every step and equals (k − 2^52)·2^-52, unitFloat's value
// bit for bit.
TEXT ·fillColAsm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	SHRQ $2, CX
	MOVQ r+16(FP), AX
	MOVQ step+24(FP), BX

	// Y0 = [r, r+step, r+2·step, r+3·step], Y1 = 4·step.
	MOVQ        AX, X0
	ADDQ        BX, AX
	VPINSRQ     $1, AX, X0, X0
	ADDQ        BX, AX
	MOVQ        AX, X13
	ADDQ        BX, AX
	VPINSRQ     $1, AX, X13, X13
	VINSERTI128 $1, X13, Y0, Y0
	SHLQ        $2, BX
	MOVQ        BX, X1
	VPBROADCASTQ X1, Y1

	MOVQ         c+32(FP), AX
	MOVQ         AX, X2
	VPBROADCASTQ X2, Y2
	MOVQ         $0x9e3779b97f4a7c15, AX
	MOVQ         AX, X3
	VPBROADCASTQ X3, Y3
	MOVQ         $0xbf58476d1ce4e5b9, AX // M1, low half used by VPMULUDQ
	MOVQ         AX, X4
	VPBROADCASTQ X4, Y4
	SHRQ         $32, AX                 // M1's high half
	MOVQ         AX, X5
	VPBROADCASTQ X5, Y5
	MOVQ         $0x94d049bb133111eb, AX // M2
	MOVQ         AX, X6
	VPBROADCASTQ X6, Y6
	SHRQ         $32, AX
	MOVQ         AX, X7
	VPBROADCASTQ X7, Y7
	MOVQ         $0x3ff0000000000000, AX // 2^52·2^-52
	MOVQ         AX, X9
	VPBROADCASTQ X9, Y9
	MOVQ         $0x41f0000000000000, AX // 2^84·2^-52
	MOVQ         AX, X10
	VPBROADCASTQ X10, Y10
	MOVQ         $0x41f0000000200000, AX // (2^84 + 2^53)·2^-52
	MOVQ         AX, X11
	VPBROADCASTQ X11, Y11

loop:
	VPXOR  Y0, Y2, Y13  // x = (r + i·step) ^ c
	VPADDQ Y3, Y13, Y13 // x += 0x9e3779b97f4a7c15
	VPSRLQ $30, Y13, Y14
	VPXOR  Y14, Y13, Y13

	VPSRLQ   $32, Y13, Y14 // x *= M1
	VPMULUDQ Y4, Y14, Y14
	VPMULUDQ Y5, Y13, Y15
	VPADDQ   Y15, Y14, Y14
	VPSLLQ   $32, Y14, Y14
	VPMULUDQ Y4, Y13, Y13
	VPADDQ   Y14, Y13, Y13

	VPSRLQ $27, Y13, Y14
	VPXOR  Y14, Y13, Y13

	VPSRLQ   $32, Y13, Y14 // x *= M2
	VPMULUDQ Y6, Y14, Y14
	VPMULUDQ Y7, Y13, Y15
	VPADDQ   Y15, Y14, Y14
	VPSLLQ   $32, Y14, Y14
	VPMULUDQ Y6, Y13, Y13
	VPADDQ   Y14, Y13, Y13

	VPSRLQ $31, Y13, Y14
	VPXOR  Y14, Y13, Y13

	VPSRLQ   $11, Y13, Y14       // k
	VPBLENDD $0xaa, Y9, Y14, Y14 // (2^52 + lo)·2^-52
	VPSRLQ   $43, Y13, Y13       // hi = k>>32
	VPOR     Y10, Y13, Y13       // (2^84 + hi·2^32)·2^-52
	VSUBPD   Y11, Y13, Y13
	VADDPD   Y14, Y13, Y13       // (k − 2^52)·2^-52
	VMOVUPD  Y13, (DI)

	VPADDQ Y1, Y0, Y0
	ADDQ   $32, DI
	DECQ   CX
	JNZ    loop
	VZEROUPPER
	RET
