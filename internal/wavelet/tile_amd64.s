#include "textflag.h"

// Packed-double interiors of analyzeTile and synthesizeTile; see
// tile_amd64.go. Lanes 0/1 share one XMM register (MOVSD low, MOVHPD
// high), lanes 2/3 another. tab holds h[k],h[k],g[k],g[k] at byte 32k,
// so one MOVUPD yields a tap for both lanes of a register. The tap
// cursor AX is a byte offset into the signal windows and stops at 8L,
// which is 2*len(tab) bytes.

// func analyzeInteriorSSE2(tab []float64, x, a, d *[4][]float64, ni int)
TEXT ·analyzeInteriorSSE2(SB), NOSPLIT, $0-56
	MOVQ tab_base+0(FP), DX
	MOVQ tab_len+8(FP), R13
	SHLQ $1, R13
	MOVQ x+24(FP), AX
	MOVQ 0(AX), SI        // x[0] window base, advances 2 samples per output
	MOVQ 24(AX), R8       // x[1]
	MOVQ 48(AX), R9       // x[2]
	MOVQ 72(AX), R10      // x[3]
	MOVQ a+32(FP), R11
	MOVQ d+40(FP), R12
	MOVQ ni+48(FP), CX
	XORQ DI, DI           // output index i
	TESTQ CX, CX
	JEQ  adone

aout:
	XORPS X0, X0          // approximation, lanes 0/1
	XORPS X1, X1          // detail, lanes 0/1
	XORPS X2, X2          // approximation, lanes 2/3
	XORPS X3, X3          // detail, lanes 2/3
	MOVQ DX, BX
	XORQ AX, AX

atap:
	MOVSD  (SI)(AX*1), X4
	MOVHPD (R8)(AX*1), X4
	MOVSD  (R9)(AX*1), X5
	MOVHPD (R10)(AX*1), X5
	MOVUPD (BX), X6       // h[k], h[k]
	MOVUPD 16(BX), X7     // g[k], g[k]
	MOVAPD X4, X8
	MULPD  X6, X8
	ADDPD  X8, X0
	MULPD  X7, X4
	ADDPD  X4, X1
	MOVAPD X5, X9
	MULPD  X6, X9
	ADDPD  X9, X2
	MULPD  X7, X5
	ADDPD  X5, X3
	ADDQ $32, BX
	ADDQ $8, AX
	CMPQ AX, R13
	JLT  atap

	MOVQ   0(R11), AX
	MOVSD  X0, (AX)(DI*8)
	MOVQ   24(R11), AX
	MOVHPD X0, (AX)(DI*8)
	MOVQ   48(R11), AX
	MOVSD  X2, (AX)(DI*8)
	MOVQ   72(R11), AX
	MOVHPD X2, (AX)(DI*8)
	MOVQ   0(R12), AX
	MOVSD  X1, (AX)(DI*8)
	MOVQ   24(R12), AX
	MOVHPD X1, (AX)(DI*8)
	MOVQ   48(R12), AX
	MOVSD  X3, (AX)(DI*8)
	MOVQ   72(R12), AX
	MOVHPD X3, (AX)(DI*8)

	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	INCQ DI
	CMPQ DI, CX
	JLT  aout

adone:
	RET

// func synthesizeInteriorSSE2(tab []float64, a, d, x *[4][]float64, ni int)
TEXT ·synthesizeInteriorSSE2(SB), NOSPLIT, $0-56
	MOVQ tab_base+0(FP), DX
	MOVQ tab_len+8(FP), R13
	SHLQ $1, R13
	MOVQ x+40(FP), AX
	MOVQ 0(AX), SI        // x[0] window base, advances 2 samples per input
	MOVQ 24(AX), R8       // x[1]
	MOVQ 48(AX), R9       // x[2]
	MOVQ 72(AX), R10      // x[3]
	MOVQ a+24(FP), R11
	MOVQ d+32(FP), R12
	MOVQ ni+48(FP), CX
	XORQ DI, DI           // input index i
	TESTQ CX, CX
	JEQ  sdone

sin:
	MOVQ   0(R11), AX
	MOVSD  (AX)(DI*8), X0 // approximation, lanes 0/1
	MOVQ   24(R11), AX
	MOVHPD (AX)(DI*8), X0
	MOVQ   48(R11), AX
	MOVSD  (AX)(DI*8), X2 // approximation, lanes 2/3
	MOVQ   72(R11), AX
	MOVHPD (AX)(DI*8), X2
	MOVQ   0(R12), AX
	MOVSD  (AX)(DI*8), X1 // detail, lanes 0/1
	MOVQ   24(R12), AX
	MOVHPD (AX)(DI*8), X1
	MOVQ   48(R12), AX
	MOVSD  (AX)(DI*8), X3 // detail, lanes 2/3
	MOVQ   72(R12), AX
	MOVHPD (AX)(DI*8), X3
	MOVQ DX, BX
	XORQ AX, AX

stap:
	MOVUPD (BX), X6       // h[k], h[k]
	MOVUPD 16(BX), X7     // g[k], g[k]
	MOVAPD X0, X8
	MULPD  X6, X8
	MOVAPD X1, X9
	MULPD  X7, X9
	ADDPD  X9, X8         // h[k]*a + g[k]*d
	MOVSD  (SI)(AX*1), X4
	MOVHPD (R8)(AX*1), X4
	ADDPD  X8, X4         // x[j] + that
	MOVSD  X4, (SI)(AX*1)
	MOVHPD X4, (R8)(AX*1)
	MOVAPD X2, X10
	MULPD  X6, X10
	MOVAPD X3, X11
	MULPD  X7, X11
	ADDPD  X11, X10
	MOVSD  (R9)(AX*1), X5
	MOVHPD (R10)(AX*1), X5
	ADDPD  X10, X5
	MOVSD  X5, (R9)(AX*1)
	MOVHPD X5, (R10)(AX*1)
	ADDQ $32, BX
	ADDQ $8, AX
	CMPQ AX, R13
	JLT  stap

	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	INCQ DI
	CMPQ DI, CX
	JLT  sin

sdone:
	RET
