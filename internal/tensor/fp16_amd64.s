// AVX2 FP16 round trip, eight float32 lanes per block. A block is done in
// the vector unit when each lane is in one of the two cases whose result
// is pure bit manipulation:
//
//   normal  biased exponent in [113,141]: the QuantizeFP16 fast path,
//           (bits + 0xfff + ((bits>>13)&1)) &^ 0x1fff;
//   tiny    biased exponent below 103 (zeros, float32 subnormals, values
//           under half the smallest half subnormal): F32ToF16 returns the
//           sign alone, so the result is the signed zero.
//
// Any other lane (half subnormals, overflow candidates, Inf, NaN) stops
// the kernel before its block, and the Go caller runs the scalar code on
// that block. Results are therefore bit-identical to QuantizeFP16.

#include "textflag.h"

// func quantizeFP16AVX2(dst, src *float32, n int) int
//
//   AX  element index       Y0  bits          Y14  0x7fffffff
//   CX  n                   Y1  |bits|        Y13  0x00000fff
//   DX  lane mask           Y2  exponent      Y12  113
//                           Y4  normal mask   Y11  28
//                           Y5  tiny mask     Y10  103
TEXT ·quantizeFP16AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	VPCMPEQD     Y15, Y15, Y15
	VPSRLD       $1, Y15, Y14
	VPSRLD       $20, Y15, Y13
	MOVL         $113, DX
	VMOVD        DX, X12
	VPBROADCASTD X12, Y12
	MOVL         $28, DX
	VMOVD        DX, X11
	VPBROADCASTD X11, Y11
	MOVL         $103, DX
	VMOVD        DX, X10
	VPBROADCASTD X10, Y10
	JMP          cond

loop:
	VMOVDQU   (SI)(AX*4), Y0
	VPAND     Y14, Y0, Y1
	VPSRLD    $23, Y1, Y2
	VPSUBD    Y12, Y2, Y3
	VPMINUD   Y11, Y3, Y4
	VPCMPEQD  Y3, Y4, Y4   // normal: e-113 <= 28, unsigned
	VPCMPGTD  Y2, Y10, Y5  // tiny: 103 > e
	VPOR      Y4, Y5, Y6
	VPMOVMSKB Y6, DX
	CMPL      DX, $-1
	JNE       done

	VPSLLD    $18, Y0, Y6
	VPSRLD    $31, Y6, Y6  // round-to-even tie bit (bits>>13)&1
	VPADDD    Y13, Y0, Y7
	VPADDD    Y6, Y7, Y7
	VPSRLD    $13, Y7, Y7
	VPSLLD    $13, Y7, Y7  // clear the 13 dropped mantissa bits
	VPXOR     Y1, Y0, Y8   // sign bit alone
	VPBLENDVB Y5, Y8, Y7, Y7
	VMOVDQU   Y7, (DI)(AX*4)
	ADDQ      $8, AX

cond:
	CMPQ AX, CX
	JLT  loop

done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
