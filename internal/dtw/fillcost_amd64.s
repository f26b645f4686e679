//go:build amd64

#include "textflag.h"

// func x86HasAVX2() bool
//
// CPUID.0 max leaf >= 7, CPUID.1:ECX OSXSAVE(27)+AVX(28), XCR0 bits
// 1-2 (XMM+YMM state enabled by the OS), CPUID.7.0:EBX AVX2(5).
TEXT ·x86HasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27 | 1<<28), R8
	CMPL R8, $(1<<27 | 1<<28)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func fillCostAVX2(qLo, qHi, qInt float64, pLo, pHi, pInt, cost *float64, n int)
//
// Y0 = qLo, Y1 = qHi, Y2 = qInt broadcast; Y3 = 0. Per step of 4:
//
//	v1 = pLo - qHi
//	v2 = qLo - pHi
//	d  = MAX(src1=v2, src2=MAX(src1=v1, src2=0))
//	t  = MIN(src1=qInt, src2=pInt)
//	cost = t * d
//
// Go assembler operand order: OP srcB, srcA, dst is Intel "op dst,
// srcA, srcB" — the FIRST Go operand is Intel src2, which MAXPD/MINPD
// return on ties/NaN. The accumulator therefore always rides in the
// first Go operand, matching the scalar branch semantics exactly.
//
// The tail (n not a multiple of 4) re-runs the last full vector at
// n-4: same inputs, same outputs, idempotent. Caller guarantees n >= 4.
TEXT ·fillCostAVX2(SB), NOSPLIT, $0-64
	VBROADCASTSD qLo+0(FP), Y0
	VBROADCASTSD qHi+8(FP), Y1
	VBROADCASTSD qInt+16(FP), Y2
	MOVQ         pLo+24(FP), SI
	MOVQ         pHi+32(FP), DI
	MOVQ         pInt+40(FP), R8
	MOVQ         cost+48(FP), R9
	MOVQ         n+56(FP), CX
	VXORPD       Y3, Y3, Y3
	XORQ         AX, AX

loop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  tail
	VMOVUPD (SI)(AX*8), Y4 // pLo
	VMOVUPD (DI)(AX*8), Y5 // pHi
	VMOVUPD (R8)(AX*8), Y6 // pInt
	VSUBPD  Y1, Y4, Y7     // v1 = pLo - qHi
	VSUBPD  Y5, Y0, Y8     // v2 = qLo - pHi
	VMAXPD  Y3, Y7, Y9     // d0 = v1 > 0 ? v1 : 0
	VMAXPD  Y9, Y8, Y10    // d  = v2 > d0 ? v2 : d0
	VMINPD  Y6, Y2, Y11    // t  = qInt < pInt ? qInt : pInt
	VMULPD  Y10, Y11, Y12  // cost = t * d
	VMOVUPD Y12, (R9)(AX*8)
	MOVQ    DX, AX
	JMP     loop

tail:
	CMPQ AX, CX
	JGE  done
	LEAQ -4(CX), AX // redo the final overlapping vector
	JMP  loop

done:
	VZEROUPPER
	RET

// func packStepsAVX2(dst, src *uint8, n int)
//
// Y14 = bytes (1, 4) repeated, Y15 = words (1, 16) repeated. Per 32 cells:
//
//	Y0 = VPMADDUBSW(cells, Y14)    16 words c0 + 4·c1
//	Y0 = VPMADDWD(Y0, Y15)         8 dwords (c0 + 4·c1) + 16·(c2 + 4·c3)
//	Y0 = VPACKUSDW, VPACKUSWB      each lane's 4 dwords to 4 bytes
//	X0 = VPUNPCKLDQ(low lane, high lane)   8 packed bytes in the low qword
//
// Every cell is 0, 1 or 2, so no sum saturates. Full 8-byte outputs are
// stored whole; the last 1-7 bytes leave a register one byte at a time.
TEXT ·packStepsAVX2(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVL         $0x04010401, AX
	VMOVQ        AX, X14
	VPBROADCASTD X14, Y14
	MOVL         $0x00100001, AX
	VMOVQ        AX, X15
	VPBROADCASTD X15, Y15

pack:
	VMOVDQU      (SI), Y0
	VPMADDUBSW   Y14, Y0, Y0
	VPMADDWD     Y15, Y0, Y0
	VPACKUSDW    Y0, Y0, Y0
	VPACKUSWB    Y0, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPUNPCKLDQ   X1, X0, X0
	CMPQ         CX, $8
	JLT          tail
	VMOVQ        X0, (DI)
	ADDQ         $32, SI
	ADDQ         $8, DI
	SUBQ         $8, CX
	JNZ          pack
	VZEROUPPER
	RET

tail:
	VMOVQ X0, AX

byte:
	MOVB AX, (DI)
	SHRQ $8, AX
	INCQ DI
	DECQ CX
	JNZ  byte
	VZEROUPPER
	RET
