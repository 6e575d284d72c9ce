// AVX2 tanh32, four lanes per step. Each lane runs the float64 operation
// sequence of the scalar tanh32 in mathfast.go, in the same order and with
// separate multiplies and adds (no FMA), so every in-range result is
// bit-identical: y = |2x|, k = trunc(y/ln2 + 0.5), r = y - k·ln2Hi -
// k·ln2Lo, the degree-7 polynomial p with its r/5040 division, 2^k from
// the exponent bits, em1 = 2^k·p + (2^k - 1), t = em1/(em1 + 2). The
// scalar code's branches become blends: lanes with !(y < 18.03) take 1,
// the sign of x is ORed in (t is never negative, so this is copysign),
// and NaN lanes return x unchanged, payload and all.
//
// The scalar code skips the 2^k step when k = 0. The vector code does not
// need to: then r = y >= +0, so p is +0 or positive and 1·p + 0 == p.

#include "textflag.h"

#define SAT    ·tanhConsts+0(SB)
#define INVLN2 ·tanhConsts+32(SB)
#define HALF   ·tanhConsts+64(SB)
#define LN2HI  ·tanhConsts+96(SB)
#define LN2LO  ·tanhConsts+128(SB)
#define C5040  ·tanhConsts+160(SB)
#define C720   ·tanhConsts+192(SB)
#define C120   ·tanhConsts+224(SB)
#define C24    ·tanhConsts+256(SB)
#define C6     ·tanhConsts+288(SB)
#define C2     ·tanhConsts+320(SB)
#define ONE    ·tanhConsts+352(SB)
#define TWO    ·tanhConsts+384(SB)

// func tanhAVX2(dst, src *float32, n int)
//
//   AX  element index     X0  x             X14  0x7fffffff
//   CX  n                 X1  |x| (bits)    X13  0x80000000
//                         Y2  y             X12  +Inf bits
//                         Y3  saturated     Y11  exponent bias 1023
//                         X4  k, Y5 kf
//                         Y6  r, Y7 p, Y8 2^k, Y9 em1 then t
TEXT ·tanhAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	VPCMPEQD     X15, X15, X15
	VPSRLD       $1, X15, X14
	VPSLLD       $31, X15, X13
	MOVL         $0x7f800000, DX
	VMOVD        DX, X12
	VPBROADCASTD X12, X12
	MOVQ         $1023, DX
	VMOVQ        DX, X11
	VPBROADCASTQ X11, Y11
	JMP          cond

loop:
	VMOVUPS   (SI)(AX*4), X0
	VANDPS    X14, X0, X1
	VCVTPS2PD X1, Y2
	VADDPD    Y2, Y2, Y2        // y = |2x|
	VCMPPD    $5, SAT, Y2, Y3   // !(y < 18.03): saturated, Inf or NaN

	// y = k·ln2 + r
	VMULPD      INVLN2, Y2, Y4
	VADDPD      HALF, Y4, Y4
	VCVTTPD2DQY Y4, X4
	VCVTDQ2PD   X4, Y5
	VMULPD      LN2HI, Y5, Y6
	VSUBPD      Y6, Y2, Y6
	VMULPD      LN2LO, Y5, Y7
	VSUBPD      Y7, Y6, Y6

	// p = r·(1 + r·(1/2 + r·(1/6 + r·(1/24 + r·(1/120 + r·(1/720 + r/5040))))))
	VDIVPD C5040, Y6, Y7
	VADDPD C720, Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD C120, Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD C24, Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD C6, Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD C2, Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD ONE, Y7, Y7
	VMULPD Y6, Y7, Y7

	// em1 = 2^k·p + (2^k - 1); t = em1/(em1 + 2)
	VPMOVSXDQ X4, Y8
	VPADDQ    Y11, Y8, Y8
	VPSLLQ    $52, Y8, Y8
	VMULPD    Y7, Y8, Y9
	VSUBPD    ONE, Y8, Y8
	VADDPD    Y8, Y9, Y9
	VADDPD    TWO, Y9, Y10
	VDIVPD    Y10, Y9, Y9

	VBLENDVPD  Y3, ONE, Y9, Y9
	VCVTPD2PSY Y9, X9
	VANDPS     X13, X0, X10
	VORPS      X10, X9, X9
	VPCMPGTD   X12, X1, X10     // NaN: |x| bits above +Inf
	VBLENDVPS  X10, X0, X9, X9
	VMOVUPS    X9, (DI)(AX*4)
	ADDQ       $4, AX

cond:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET
