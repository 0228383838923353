//go:build amd64

#include "textflag.h"

// func microKernelAsm(kc int, ap, bp *float64, acc *[16]float64)
//
// acc[j*4+i] = Σ_p ap[p*4+i]·bp[p*4+j], the 4×4 register tile of the
// packed GEMM engine. Each C column is one ymm accumulator; one k-step
// is a 4-double load of the A strip, four broadcasts of the B strip and
// four VFMADD231PD. The loop is unrolled by two with a second set of
// accumulators (Y4–Y7) so eight independent FMA chains cover the FMA
// latency; the sets are summed once at the end (a fixed order — the
// kernel is deterministic for a given kc).
TEXT ·microKernelAsm(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ CX, R8
	SHRQ $1, R8
	JZ   tail
loop:
	VMOVUPD      (SI), Y8
	VBROADCASTSD (DI), Y9
	VBROADCASTSD 8(DI), Y10
	VBROADCASTSD 16(DI), Y11
	VBROADCASTSD 24(DI), Y12
	VFMADD231PD  Y8, Y9, Y0
	VFMADD231PD  Y8, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y8, Y12, Y3
	VMOVUPD      32(SI), Y13
	VBROADCASTSD 32(DI), Y9
	VBROADCASTSD 40(DI), Y10
	VBROADCASTSD 48(DI), Y11
	VBROADCASTSD 56(DI), Y12
	VFMADD231PD  Y13, Y9, Y4
	VFMADD231PD  Y13, Y10, Y5
	VFMADD231PD  Y13, Y11, Y6
	VFMADD231PD  Y13, Y12, Y7
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ R8
	JNZ  loop
tail:
	TESTQ $1, CX
	JZ    done
	VMOVUPD      (SI), Y8
	VBROADCASTSD (DI), Y9
	VBROADCASTSD 8(DI), Y10
	VBROADCASTSD 16(DI), Y11
	VBROADCASTSD 24(DI), Y12
	VFMADD231PD  Y8, Y9, Y0
	VFMADD231PD  Y8, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y8, Y12, Y3
done:
	VADDPD  Y0, Y4, Y0
	VADDPD  Y1, Y5, Y1
	VADDPD  Y2, Y6, Y2
	VADDPD  Y3, Y7, Y3
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET
