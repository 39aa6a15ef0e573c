#include "textflag.h"

// One multiplier applied to two vectors of the accumulator (X4, X5):
// acc += a·b, the product and the sum rounded separately (no FMA).
#define STEP8(breg, areg) \
	MOVUPS (breg)(SI*1), X6    \
	MOVUPS 16(breg)(SI*1), X7  \
	MULPS  areg, X6            \
	MULPS  areg, X7            \
	ADDPS  X6, X4              \
	ADDPS  X7, X5

#define STEP4(breg, areg) \
	MOVUPS (breg)(SI*1), X6 \
	MULPS  areg, X6         \
	ADDPS  X6, X4

// func axpy4SSE2(d, b0, b1, b2, b3 *float32, a *[4]float32, n int)
TEXT ·axpy4SSE2(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ a+40(FP), AX
	MOVQ n+48(FP), CX
	SHLQ $2, CX          // bytes
	MOVSS  0(AX), X0
	SHUFPS $0, X0, X0
	MOVSS  4(AX), X1
	SHUFPS $0, X1, X1
	MOVSS  8(AX), X2
	SHUFPS $0, X2, X2
	MOVSS  12(AX), X3
	SHUFPS $0, X3, X3
	XORQ SI, SI          // byte offset into every row
	MOVQ CX, DX
	ANDQ $~31, DX        // bytes covered by the 8-lane loop
	JEQ  tail

loop8:
	MOVUPS (DI)(SI*1), X4
	MOVUPS 16(DI)(SI*1), X5
	STEP8(R8, X0)
	STEP8(R9, X1)
	STEP8(R10, X2)
	STEP8(R11, X3)
	MOVUPS X4, (DI)(SI*1)
	MOVUPS X5, 16(DI)(SI*1)
	ADDQ $32, SI
	CMPQ SI, DX
	JLT  loop8

tail:
	CMPQ SI, CX
	JGE  done
	MOVUPS (DI)(SI*1), X4
	STEP4(R8, X0)
	STEP4(R9, X1)
	STEP4(R10, X2)
	STEP4(R11, X3)
	MOVUPS X4, (DI)(SI*1)

done:
	RET
