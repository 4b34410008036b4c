#include "textflag.h"

// The 8-lane kernel behind Vec: Montgomery products in radix 2⁵² with
// VPMADD52LUQ/VPMADD52HUQ (AVX-512 IFMA), after Gueron and Krasnov,
// "Accelerating big integer arithmetic using Intel IFMA extensions"
// (ARITH 2016). A Vec is ten ZMM rows, row k holding limb k of all
// eight lanes, so every instruction works on eight independent field
// elements. CX points to the field's vecConst:
//
//	0(CX)    p, ten limbs      80(CX)   2p, ten limbs
//	160(CX)  −p⁻¹ mod 2⁵²      168(CX)  2⁵²−1         176(CX)  2⁸−1
//
// Registers: Z0–Z9 the multiplicand y, Z10–Z20 the eleven accumulator
// rows, Z21 the reduction multiplier m, Z22 the current row of x,
// Z20–Z29 a second operand for conditional subtraction (outside MUL),
// Z30 a carry, Z31 the 52-bit mask.

// ROUND(off, xp, t0..t10) adds the row of x at off times y to t, then
// m·p with m = t0·(−p⁻¹) mod 2⁵², which clears t0's low 52 bits, and
// moves t0's carry into t1. t0 is left zero: it is the next round's
// t10. Lanes are 64-bit and take the 52-bit halves unnormalized; over
// ten rounds a row gathers fewer than 2⁵⁸.
#define ROUND(off, xp, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10) \
	VMOVDQU64        off(xp), Z22;   \
	VPMADD52LUQ      Z0, Z22, t0;    \
	VPMADD52HUQ      Z0, Z22, t1;    \
	VPMADD52LUQ      Z1, Z22, t1;    \
	VPMADD52HUQ      Z1, Z22, t2;    \
	VPMADD52LUQ      Z2, Z22, t2;    \
	VPMADD52HUQ      Z2, Z22, t3;    \
	VPMADD52LUQ      Z3, Z22, t3;    \
	VPMADD52HUQ      Z3, Z22, t4;    \
	VPMADD52LUQ      Z4, Z22, t4;    \
	VPMADD52HUQ      Z4, Z22, t5;    \
	VPMADD52LUQ      Z5, Z22, t5;    \
	VPMADD52HUQ      Z5, Z22, t6;    \
	VPMADD52LUQ      Z6, Z22, t6;    \
	VPMADD52HUQ      Z6, Z22, t7;    \
	VPMADD52LUQ      Z7, Z22, t7;    \
	VPMADD52HUQ      Z7, Z22, t8;    \
	VPMADD52LUQ      Z8, Z22, t8;    \
	VPMADD52HUQ      Z8, Z22, t9;    \
	VPMADD52LUQ      Z9, Z22, t9;    \
	VPMADD52HUQ      Z9, Z22, t10;   \
	VPXORQ           Z21, Z21, Z21;  \
	VPMADD52LUQ.BCST 160(CX), t0, Z21; \
	VPMADD52LUQ.BCST 0(CX), Z21, t0;  \
	VPMADD52HUQ.BCST 0(CX), Z21, t1;  \
	VPMADD52LUQ.BCST 8(CX), Z21, t1;  \
	VPMADD52HUQ.BCST 8(CX), Z21, t2;  \
	VPMADD52LUQ.BCST 16(CX), Z21, t2; \
	VPMADD52HUQ.BCST 16(CX), Z21, t3; \
	VPMADD52LUQ.BCST 24(CX), Z21, t3; \
	VPMADD52HUQ.BCST 24(CX), Z21, t4; \
	VPMADD52LUQ.BCST 32(CX), Z21, t4; \
	VPMADD52HUQ.BCST 32(CX), Z21, t5; \
	VPMADD52LUQ.BCST 40(CX), Z21, t5; \
	VPMADD52HUQ.BCST 40(CX), Z21, t6; \
	VPMADD52LUQ.BCST 48(CX), Z21, t6; \
	VPMADD52HUQ.BCST 48(CX), Z21, t7; \
	VPMADD52LUQ.BCST 56(CX), Z21, t7; \
	VPMADD52HUQ.BCST 56(CX), Z21, t8; \
	VPMADD52LUQ.BCST 64(CX), Z21, t8; \
	VPMADD52HUQ.BCST 64(CX), Z21, t9; \
	VPMADD52LUQ.BCST 72(CX), Z21, t9; \
	VPMADD52HUQ.BCST 72(CX), Z21, t10; \
	VPSRLQ           $52, t0, t0;    \
	VPADDQ           t0, t1, t1;     \
	VPXORQ           t0, t0, t0

// CARRY(a, b) moves a's bits above 52 into b; SCARRY does the same for
// a signed a, borrowing from b when a is negative.
#define CARRY(a, b) \
	VPSRLQ $52, a, Z30; \
	VPANDQ Z31, a, a;   \
	VPADDQ Z30, b, b

#define SCARRY(a, b) \
	VPSRAQ $52, a, Z30; \
	VPANDQ Z31, a, a;   \
	VPADDQ Z30, b, b

// LOAD and STORE move a Vec between memory at vp and ten rows.
#define LOAD(vp, r0, r1, r2, r3, r4, r5, r6, r7, r8, r9) \
	VMOVDQU64 0(vp), r0;   \
	VMOVDQU64 64(vp), r1;  \
	VMOVDQU64 128(vp), r2; \
	VMOVDQU64 192(vp), r3; \
	VMOVDQU64 256(vp), r4; \
	VMOVDQU64 320(vp), r5; \
	VMOVDQU64 384(vp), r6; \
	VMOVDQU64 448(vp), r7; \
	VMOVDQU64 512(vp), r8; \
	VMOVDQU64 576(vp), r9

#define STORE(vp, r0, r1, r2, r3, r4, r5, r6, r7, r8, r9) \
	VMOVDQU64 r0, 0(vp);   \
	VMOVDQU64 r1, 64(vp);  \
	VMOVDQU64 r2, 128(vp); \
	VMOVDQU64 r3, 192(vp); \
	VMOVDQU64 r4, 256(vp); \
	VMOVDQU64 r5, 320(vp); \
	VMOVDQU64 r6, 384(vp); \
	VMOVDQU64 r7, 448(vp); \
	VMOVDQU64 r8, 512(vp); \
	VMOVDQU64 r9, 576(vp)

// MUL(xp, yp, zp) stores at zp the Montgomery product x·y·2⁻⁵²⁰ mod p
// of the Vecs at xp and yp, in [0, 2p) whenever x·y < 2⁵²⁰·p (both
// below 2p suffices, since 4p < 2⁵²⁰). zp may be xp or yp.
#define MUL(xp, yp, zp) \
	LOAD(yp, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9);                  \
	VPXORQ Z10, Z10, Z10;                                               \
	VPXORQ Z11, Z11, Z11;                                               \
	VPXORQ Z12, Z12, Z12;                                               \
	VPXORQ Z13, Z13, Z13;                                               \
	VPXORQ Z14, Z14, Z14;                                               \
	VPXORQ Z15, Z15, Z15;                                               \
	VPXORQ Z16, Z16, Z16;                                               \
	VPXORQ Z17, Z17, Z17;                                               \
	VPXORQ Z18, Z18, Z18;                                               \
	VPXORQ Z19, Z19, Z19;                                               \
	VPXORQ Z20, Z20, Z20;                                               \
	ROUND(0, xp, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20);   \
	ROUND(64, xp, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z10);  \
	ROUND(128, xp, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z10, Z11); \
	ROUND(192, xp, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z10, Z11, Z12); \
	ROUND(256, xp, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z10, Z11, Z12, Z13); \
	ROUND(320, xp, Z15, Z16, Z17, Z18, Z19, Z20, Z10, Z11, Z12, Z13, Z14); \
	ROUND(384, xp, Z16, Z17, Z18, Z19, Z20, Z10, Z11, Z12, Z13, Z14, Z15); \
	ROUND(448, xp, Z17, Z18, Z19, Z20, Z10, Z11, Z12, Z13, Z14, Z15, Z16); \
	ROUND(512, xp, Z18, Z19, Z20, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17); \
	ROUND(576, xp, Z19, Z20, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18); \
	CARRY(Z20, Z10);                                                    \
	CARRY(Z10, Z11);                                                    \
	CARRY(Z11, Z12);                                                    \
	CARRY(Z12, Z13);                                                    \
	CARRY(Z13, Z14);                                                    \
	CARRY(Z14, Z15);                                                    \
	CARRY(Z15, Z16);                                                    \
	CARRY(Z16, Z17);                                                    \
	CARRY(Z17, Z18);                                                    \
	STORE(zp, Z20, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18)

// SUBK(xp, yp, k) sets Z10–Z19 to x + K − y, normalized, where K is
// the ten-limb constant at k(CX). The result must lie in [0, 2⁵²⁰).
#define SUBK(xp, yp, k) \
	LOAD(xp, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19); \
	VPADDQ.BCST k+0(CX), Z10, Z10;  \
	VPADDQ.BCST k+8(CX), Z11, Z11;  \
	VPADDQ.BCST k+16(CX), Z12, Z12; \
	VPADDQ.BCST k+24(CX), Z13, Z13; \
	VPADDQ.BCST k+32(CX), Z14, Z14; \
	VPADDQ.BCST k+40(CX), Z15, Z15; \
	VPADDQ.BCST k+48(CX), Z16, Z16; \
	VPADDQ.BCST k+56(CX), Z17, Z17; \
	VPADDQ.BCST k+64(CX), Z18, Z18; \
	VPADDQ.BCST k+72(CX), Z19, Z19; \
	SUBV(yp)

// SUBV(yp) subtracts the Vec at yp from Z10–Z19 and normalizes.
#define SUBV(yp) \
	VPSUBQ 0(yp), Z10, Z10;   \
	VPSUBQ 64(yp), Z11, Z11;  \
	VPSUBQ 128(yp), Z12, Z12; \
	VPSUBQ 192(yp), Z13, Z13; \
	VPSUBQ 256(yp), Z14, Z14; \
	VPSUBQ 320(yp), Z15, Z15; \
	VPSUBQ 384(yp), Z16, Z16; \
	VPSUBQ 448(yp), Z17, Z17; \
	VPSUBQ 512(yp), Z18, Z18; \
	VPSUBQ 576(yp), Z19, Z19; \
	NORMS

// NORMS normalizes the signed rows Z10–Z19.
#define NORMS \
	SCARRY(Z10, Z11); \
	SCARRY(Z11, Z12); \
	SCARRY(Z12, Z13); \
	SCARRY(Z13, Z14); \
	SCARRY(Z14, Z15); \
	SCARRY(Z15, Z16); \
	SCARRY(Z16, Z17); \
	SCARRY(Z17, Z18); \
	SCARRY(Z18, Z19)

// CSUB(k) subtracts the constant at k(CX) from the lanes of Z10–Z19
// that are at least that constant, in Z20–Z29 first.
#define CSUB(k) \
	VPSUBQ.BCST k+0(CX), Z10, Z20;  \
	VPSUBQ.BCST k+8(CX), Z11, Z21;  \
	VPSUBQ.BCST k+16(CX), Z12, Z22; \
	VPSUBQ.BCST k+24(CX), Z13, Z23; \
	VPSUBQ.BCST k+32(CX), Z14, Z24; \
	VPSUBQ.BCST k+40(CX), Z15, Z25; \
	VPSUBQ.BCST k+48(CX), Z16, Z26; \
	VPSUBQ.BCST k+56(CX), Z17, Z27; \
	VPSUBQ.BCST k+64(CX), Z18, Z28; \
	VPSUBQ.BCST k+72(CX), Z19, Z29; \
	SCARRY(Z20, Z21);               \
	SCARRY(Z21, Z22);               \
	SCARRY(Z22, Z23);               \
	SCARRY(Z23, Z24);               \
	SCARRY(Z24, Z25);               \
	SCARRY(Z25, Z26);               \
	SCARRY(Z26, Z27);               \
	SCARRY(Z27, Z28);               \
	SCARRY(Z28, Z29);               \
	VPMOVQ2M Z29, K1;               \
	KNOTB    K1, K1;                \
	VMOVDQA64 Z20, K1, Z10;         \
	VMOVDQA64 Z21, K1, Z11;         \
	VMOVDQA64 Z22, K1, Z12;         \
	VMOVDQA64 Z23, K1, Z13;         \
	VMOVDQA64 Z24, K1, Z14;         \
	VMOVDQA64 Z25, K1, Z15;         \
	VMOVDQA64 Z26, K1, Z16;         \
	VMOVDQA64 Z27, K1, Z17;         \
	VMOVDQA64 Z28, K1, Z18;         \
	VMOVDQA64 Z29, K1, Z19

// DIV256(xp, zp) stores at zp x·2⁻⁸ mod p for x < 2p: one 8-bit
// Montgomery step, x + k·p with k = x·(−p⁻¹) mod 2⁸, shifted right by 8
// bits. The result is below (2p + 255p)/2⁸ < 2p.
#define DIV256(xp, zp) \
	LOAD(xp, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19); \
	VPXORQ           Z20, Z20, Z20;     \
	VPXORQ           Z21, Z21, Z21;     \
	VPMADD52LUQ.BCST 160(CX), Z10, Z21; \
	VPANDQ.BCST      176(CX), Z21, Z21; \
	VPMADD52LUQ.BCST 0(CX), Z21, Z10;   \
	VPMADD52HUQ.BCST 0(CX), Z21, Z11;   \
	VPMADD52LUQ.BCST 8(CX), Z21, Z11;   \
	VPMADD52HUQ.BCST 8(CX), Z21, Z12;   \
	VPMADD52LUQ.BCST 16(CX), Z21, Z12;  \
	VPMADD52HUQ.BCST 16(CX), Z21, Z13;  \
	VPMADD52LUQ.BCST 24(CX), Z21, Z13;  \
	VPMADD52HUQ.BCST 24(CX), Z21, Z14;  \
	VPMADD52LUQ.BCST 32(CX), Z21, Z14;  \
	VPMADD52HUQ.BCST 32(CX), Z21, Z15;  \
	VPMADD52LUQ.BCST 40(CX), Z21, Z15;  \
	VPMADD52HUQ.BCST 40(CX), Z21, Z16;  \
	VPMADD52LUQ.BCST 48(CX), Z21, Z16;  \
	VPMADD52HUQ.BCST 48(CX), Z21, Z17;  \
	VPMADD52LUQ.BCST 56(CX), Z21, Z17;  \
	VPMADD52HUQ.BCST 56(CX), Z21, Z18;  \
	VPMADD52LUQ.BCST 64(CX), Z21, Z18;  \
	VPMADD52HUQ.BCST 64(CX), Z21, Z19;  \
	VPMADD52LUQ.BCST 72(CX), Z21, Z19;  \
	VPMADD52HUQ.BCST 72(CX), Z21, Z20;  \
	CARRY(Z10, Z11);                    \
	CARRY(Z11, Z12);                    \
	CARRY(Z12, Z13);                    \
	CARRY(Z13, Z14);                    \
	CARRY(Z14, Z15);                    \
	CARRY(Z15, Z16);                    \
	CARRY(Z16, Z17);                    \
	CARRY(Z17, Z18);                    \
	CARRY(Z18, Z19);                    \
	CARRY(Z19, Z20);                    \
	SHR8(Z10, Z11);                     \
	SHR8(Z11, Z12);                     \
	SHR8(Z12, Z13);                     \
	SHR8(Z13, Z14);                     \
	SHR8(Z14, Z15);                     \
	SHR8(Z15, Z16);                     \
	SHR8(Z16, Z17);                     \
	SHR8(Z17, Z18);                     \
	SHR8(Z18, Z19);                     \
	SHR8(Z19, Z20);                     \
	STORE(zp, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19)

// SHR8(a, b) sets limb a to the 52 bits above bit 8 of the pair (a, b).
#define SHR8(a, b) \
	VPSRLQ $8, a, a;    \
	VPSLLQ $44, b, Z30; \
	VPANDQ Z31, Z30, Z30; \
	VPORQ  Z30, a, a

// func vecMul(z, x, y *Vec, c *vecConst)
TEXT ·vecMul(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), DX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ c+24(FP), CX
	VPBROADCASTQ 168(CX), Z31
	MUL(SI, DI, DX)
	VZEROUPPER
	RET

// func vecAdd(z, x, y *Vec, c *vecConst)
//
// x + y, normalized, less 2p where that leaves it non-negative: for x
// and y below 2p, a value below 2p.
TEXT ·vecAdd(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), DX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ c+24(FP), CX
	VPBROADCASTQ 168(CX), Z31
	LOAD(SI, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19)
	VPADDQ 0(DI), Z10, Z10
	VPADDQ 64(DI), Z11, Z11
	VPADDQ 128(DI), Z12, Z12
	VPADDQ 192(DI), Z13, Z13
	VPADDQ 256(DI), Z14, Z14
	VPADDQ 320(DI), Z15, Z15
	VPADDQ 384(DI), Z16, Z16
	VPADDQ 448(DI), Z17, Z17
	VPADDQ 512(DI), Z18, Z18
	VPADDQ 576(DI), Z19, Z19
	CARRY(Z10, Z11)
	CARRY(Z11, Z12)
	CARRY(Z12, Z13)
	CARRY(Z13, Z14)
	CARRY(Z14, Z15)
	CARRY(Z15, Z16)
	CARRY(Z16, Z17)
	CARRY(Z17, Z18)
	CARRY(Z18, Z19)
	CSUB(80)
	STORE(DX, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19)
	VZEROUPPER
	RET

// func vecSub(z, x, y *Vec, c *vecConst)
//
// x + 2p − y, normalized, less 2p where that leaves it non-negative:
// for x and y below 2p, a value below 2p.
TEXT ·vecSub(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), DX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ c+24(FP), CX
	VPBROADCASTQ 168(CX), Z31
	SUBK(SI, DI, 80)
	CSUB(80)
	STORE(DX, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19)
	VZEROUPPER
	RET

// func vecReduce(z, x *Vec, c *vecConst)
//
// x less p where that leaves it non-negative: for x below 2p, a value
// below p.
TEXT ·vecReduce(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DX
	MOVQ x+8(FP), SI
	MOVQ c+16(FP), CX
	VPBROADCASTQ 168(CX), Z31
	LOAD(SI, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19)
	CSUB(0)
	STORE(DX, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19)
	VZEROUPPER
	RET

// func vecChord(x3, y3, x1, y1, x2, y2, inv *Vec, c *vecConst)
//
// With l = (y2 − y1)·inv in the kernel's domain (2⁵²⁰), l' = l·2⁻⁸, and
// inputs below p: x3 = l·l' − x1 − x2 and y3 = l·(x1 − x3) − y1, both
// reduced below p. The frame holds three Vecs of intermediates.
TEXT ·vecChord(SB), 0, $1920-64
	MOVQ c+56(FP), CX
	VPBROADCASTQ 168(CX), Z31
	LEAQ 0(SP), R8    // t0
	LEAQ 640(SP), R9  // t1
	LEAQ 1280(SP), R10 // t2

	// t0 = y2 + p − y1; t1 = l = t0·inv; t2 = l' = l/2⁸.
	MOVQ y2+40(FP), SI
	MOVQ y1+24(FP), DI
	SUBK(SI, DI, 0)
	STORE(R8, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19)
	MOVQ inv+48(FP), DI
	MUL(R8, DI, R9)
	DIV256(R9, R10)

	// t0 = l·l'; x3 = t0 + 2p − x1 − x2, reduced below p.
	MUL(R9, R10, R8)
	MOVQ x1+16(FP), SI
	MOVQ x2+32(FP), DI
	SUBK(R8, SI, 80)
	SUBV(DI)
	CSUB(80)
	CSUB(0)
	MOVQ x3+0(FP), DX
	STORE(DX, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19)

	// t2 = x1 + p − x3; t0 = l·t2; y3 = t0 + p − y1, reduced below p.
	SUBK(SI, DX, 0)
	STORE(R10, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19)
	MUL(R9, R10, R8)
	MOVQ y1+24(FP), DI
	SUBK(R8, DI, 0)
	CSUB(80)
	CSUB(0)
	MOVQ y3+8(FP), DX
	STORE(DX, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19)
	VZEROUPPER
	RET

// func cpuHasIFMA() bool
TEXT ·cpuHasIFMA(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	MOVL  $0, AX
	CPUID
	CMPL  AX, $7
	JB    done
	// Leaf 1, ECX bit 27: the OS uses XSAVE, so XGETBV is available.
	MOVL  $1, AX
	MOVL  $0, CX
	CPUID
	BTL   $27, CX
	JCC   done
	// Leaf 7, EBX: bit 16 is AVX512F, bit 21 AVX512_IFMA.
	MOVL  $7, AX
	MOVL  $0, CX
	CPUID
	ANDL  $0x210000, BX
	CMPL  BX, $0x210000
	JNE   done
	// XCR0 bits 1, 2, 5, 6, 7: the OS saves the SSE, AVX, opmask and
	// both halves of the ZMM state.
	MOVL  $0, CX
	XGETBV
	ANDL  $0xe6, AX
	CMPL  AX, $0xe6
	SETEQ ret+0(FP)

done:
	RET
