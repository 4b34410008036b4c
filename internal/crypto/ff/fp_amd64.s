#include "textflag.h"

// The 8-limb Montgomery product (CIOS) behind Field.Mul, for CPUs with
// BMI2 (MULX) and ADX (ADCX/ADOX). Registers:
//
//	DX      the multiplier of the current row: x_i, then m
//	AX, BX  low and high word of each MULX
//	SI, DI  pointers to y and p
//	CX, R8–R15  the nine accumulator words t₀…t₈
//
// Each round adds x_i·y and then m·p to t, and drops t₀, which the
// second row clears. The dropped register comes back as the new t₈, so
// the shift moves no data: the macros take the nine words in their
// current order, and each round passes them rotated by one.
//
// Bounds: the rounds keep t < 2p, given y < p. Then t + x_i·y is below
// (2⁶⁴+1)·p, which fits the nine words when p's top limb is below
// 2⁶⁴−1, so neither carry chain of the first row leaves them. The
// second row's sum can reach a tenth word; that word is the new t₈.

// MULROW(t0..t8): t += DX·y. ADOX carries the low words, ADCX the high
// words; the sum fits the nine words, so both chains end in t8.
#define MULROW(t0, t1, t2, t3, t4, t5, t6, t7, t8) \
	XORQ  AX, AX;        \
	MULXQ 0(SI), AX, BX;  \
	ADOXQ AX, t0;        \
	ADCXQ BX, t1;        \
	MULXQ 8(SI), AX, BX;  \
	ADOXQ AX, t1;        \
	ADCXQ BX, t2;        \
	MULXQ 16(SI), AX, BX; \
	ADOXQ AX, t2;        \
	ADCXQ BX, t3;        \
	MULXQ 24(SI), AX, BX; \
	ADOXQ AX, t3;        \
	ADCXQ BX, t4;        \
	MULXQ 32(SI), AX, BX; \
	ADOXQ AX, t4;        \
	ADCXQ BX, t5;        \
	MULXQ 40(SI), AX, BX; \
	ADOXQ AX, t5;        \
	ADCXQ BX, t6;        \
	MULXQ 48(SI), AX, BX; \
	ADOXQ AX, t6;        \
	ADCXQ BX, t7;        \
	MULXQ 56(SI), AX, BX; \
	ADOXQ AX, t7;        \
	ADCXQ BX, t8;        \
	MOVQ  $0, AX;        \
	ADOXQ AX, t8

// REDROW(t0..t8): t += DX·p with DX = m, which clears t0. Both final
// carries go into t0's register, which becomes the word above t8.
#define REDROW(t0, t1, t2, t3, t4, t5, t6, t7, t8) \
	XORQ  AX, AX;        \
	MULXQ 0(DI), AX, BX;  \
	ADOXQ AX, t0;        \
	ADCXQ BX, t1;        \
	MULXQ 8(DI), AX, BX;  \
	ADOXQ AX, t1;        \
	ADCXQ BX, t2;        \
	MULXQ 16(DI), AX, BX; \
	ADOXQ AX, t2;        \
	ADCXQ BX, t3;        \
	MULXQ 24(DI), AX, BX; \
	ADOXQ AX, t3;        \
	ADCXQ BX, t4;        \
	MULXQ 32(DI), AX, BX; \
	ADOXQ AX, t4;        \
	ADCXQ BX, t5;        \
	MULXQ 40(DI), AX, BX; \
	ADOXQ AX, t5;        \
	ADCXQ BX, t6;        \
	MULXQ 48(DI), AX, BX; \
	ADOXQ AX, t6;        \
	ADCXQ BX, t7;        \
	MULXQ 56(DI), AX, BX; \
	ADOXQ AX, t7;        \
	ADCXQ BX, t8;        \
	MOVQ  $0, AX;        \
	ADOXQ AX, t8;        \
	ADCXQ AX, t0;        \
	ADOXQ AX, t0

// ROUND(off, t0..t8) is the round for x_i at byte offset off = 8i, i ≥ 1:
// t += x_i·y, m = t0·(−p⁻¹), t += m·p. The caller names the words one
// place on for the next round.
#define ROUND(off, t0, t1, t2, t3, t4, t5, t6, t7, t8) \
	MOVQ  x+8(FP), DX;                         \
	MOVQ  off(DX), DX;                         \
	MULROW(t0, t1, t2, t3, t4, t5, t6, t7, t8); \
	MOVQ  t0, DX;                              \
	IMULQ pInv+32(FP), DX;                     \
	REDROW(t0, t1, t2, t3, t4, t5, t6, t7, t8)

// func mulADX(z, x, y, p *[maxLimbs]uint64, pInv uint64)
TEXT ·mulADX(SB), NOSPLIT, $0-40
	MOVQ y+16(FP), SI
	MOVQ p+24(FP), DI

	// Round 0 starts from t = 0, so its first row is x_0·y alone: one
	// ADCX chain over the MULX halves.
	MOVQ  x+8(FP), DX
	MOVQ  0(DX), DX
	XORQ  R15, R15
	MULXQ 0(SI), CX, R8
	MULXQ 8(SI), AX, R9
	ADCXQ AX, R8
	MULXQ 16(SI), AX, R10
	ADCXQ AX, R9
	MULXQ 24(SI), AX, R11
	ADCXQ AX, R10
	MULXQ 32(SI), AX, R12
	ADCXQ AX, R11
	MULXQ 40(SI), AX, R13
	ADCXQ AX, R12
	MULXQ 48(SI), AX, R14
	ADCXQ AX, R13
	MULXQ 56(SI), AX, BX
	ADCXQ AX, R14
	ADCXQ BX, R15
	MOVQ  CX, DX
	IMULQ pInv+32(FP), DX
	REDROW(CX, R8, R9, R10, R11, R12, R13, R14, R15)

	ROUND(8, R8, R9, R10, R11, R12, R13, R14, R15, CX)
	ROUND(16, R9, R10, R11, R12, R13, R14, R15, CX, R8)
	ROUND(24, R10, R11, R12, R13, R14, R15, CX, R8, R9)
	ROUND(32, R11, R12, R13, R14, R15, CX, R8, R9, R10)
	ROUND(40, R12, R13, R14, R15, CX, R8, R9, R10, R11)
	ROUND(48, R13, R14, R15, CX, R8, R9, R10, R11, R12)
	ROUND(56, R14, R15, CX, R8, R9, R10, R11, R12, R13)

	// t = (R15, CX, R8, …, R13, R14 on top) is below 2p. Store it,
	// subtract p in place, and where that borrowed put t back.
	MOVQ    z+0(FP), SI
	MOVQ    R15, 0(SI)
	MOVQ    CX, 8(SI)
	MOVQ    R8, 16(SI)
	MOVQ    R9, 24(SI)
	MOVQ    R10, 32(SI)
	MOVQ    R11, 40(SI)
	MOVQ    R12, 48(SI)
	MOVQ    R13, 56(SI)
	SUBQ    0(DI), R15
	SBBQ    8(DI), CX
	SBBQ    16(DI), R8
	SBBQ    24(DI), R9
	SBBQ    32(DI), R10
	SBBQ    40(DI), R11
	SBBQ    48(DI), R12
	SBBQ    56(DI), R13
	SBBQ    $0, R14
	CMOVQCS 0(SI), R15
	CMOVQCS 8(SI), CX
	CMOVQCS 16(SI), R8
	CMOVQCS 24(SI), R9
	CMOVQCS 32(SI), R10
	CMOVQCS 40(SI), R11
	CMOVQCS 48(SI), R12
	CMOVQCS 56(SI), R13
	MOVQ    R15, 0(SI)
	MOVQ    CX, 8(SI)
	MOVQ    R8, 16(SI)
	MOVQ    R9, 24(SI)
	MOVQ    R10, 32(SI)
	MOVQ    R11, 40(SI)
	MOVQ    R12, 48(SI)
	MOVQ    R13, 56(SI)
	RET

// func cpuHasADX() bool
TEXT ·cpuHasADX(SB), NOSPLIT, $0-1
	MOVL  $0, AX
	CPUID
	CMPL  AX, $7
	JB    no
	MOVL  $7, AX
	MOVL  $0, CX
	CPUID
	// Leaf 7, EBX: bit 8 is BMI2 (MULX), bit 19 is ADX.
	ANDL  $0x80100, BX
	CMPL  BX, $0x80100
	SETEQ ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
