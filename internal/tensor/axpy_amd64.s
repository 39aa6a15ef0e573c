#include "textflag.h"

// One multiplier applied to two 8-lane vectors of the accumulator (Y4, Y5):
// acc += a·b, the product and the sum rounded separately (VMULPS then
// VADDPS, never VFMADD).
#define STEP16(breg, areg) \
	VMULPS (breg)(SI*1), areg, Y6   \
	VMULPS 32(breg)(SI*1), areg, Y7 \
	VADDPS Y6, Y4, Y4               \
	VADDPS Y7, Y5, Y5

#define STEP8(breg, areg) \
	VMULPS (breg)(SI*1), areg, Y6 \
	VADDPS Y6, Y4, Y4

#define STEP4(breg, areg) \
	VMULPS (breg)(SI*1), areg, X6 \
	VADDPS X6, X4, X4

// func axpy4AVX2(d, b0, b1, b2, b3 *float32, a *[4]float32, n int)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ a+40(FP), AX
	MOVQ n+48(FP), CX
	SHLQ $2, CX          // bytes
	VBROADCASTSS 0(AX), Y0
	VBROADCASTSS 4(AX), Y1
	VBROADCASTSS 8(AX), Y2
	VBROADCASTSS 12(AX), Y3
	XORQ SI, SI          // byte offset into every row
	MOVQ CX, DX
	ANDQ $~63, DX        // bytes covered by the 16-lane loop
	JEQ  tail8

loop16:
	VMOVUPS (DI)(SI*1), Y4
	VMOVUPS 32(DI)(SI*1), Y5
	STEP16(R8, Y0)
	STEP16(R9, Y1)
	STEP16(R10, Y2)
	STEP16(R11, Y3)
	VMOVUPS Y4, (DI)(SI*1)
	VMOVUPS Y5, 32(DI)(SI*1)
	ADDQ $64, SI
	CMPQ SI, DX
	JLT  loop16

tail8:
	MOVQ CX, DX
	SUBQ SI, DX
	CMPQ DX, $32
	JLT  tail4
	VMOVUPS (DI)(SI*1), Y4
	STEP8(R8, Y0)
	STEP8(R9, Y1)
	STEP8(R10, Y2)
	STEP8(R11, Y3)
	VMOVUPS Y4, (DI)(SI*1)
	ADDQ $32, SI

tail4:
	CMPQ SI, CX
	JGE  done
	VMOVUPS (DI)(SI*1), X4
	STEP4(R8, X0)
	STEP4(R9, X1)
	STEP4(R10, X2)
	STEP4(R11, X3)
	VMOVUPS X4, (DI)(SI*1)

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
