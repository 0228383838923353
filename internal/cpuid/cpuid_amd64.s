//go:build amd64

#include "textflag.h"

// func supported() bool
//
// True iff CPUID reports FMA+AVX+OSXSAVE+AVX2 and XCR0 says the OS
// saves xmm/ymm state.
TEXT ·supported(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7              // need leaf 7 for the AVX2 bit
	JLT  no
	MOVL $1, AX
	CPUID
	MOVL CX, R8
	ANDL $(1<<28 | 1<<27 | 1<<12), R8 // AVX | OSXSAVE | FMA
	CMPL R8, $(1<<28 | 1<<27 | 1<<12)
	JNE  no
	MOVL $0, CX
	XGETBV                   // XCR0 in DX:AX
	ANDL $6, AX              // xmm (bit 1) and ymm (bit 2) state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<5), BX         // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET
