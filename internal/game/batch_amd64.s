#include "textflag.h"

// swap maps a joint move m0<<1|m1 to m1<<1|m0, player 1's view of it.
DATA swap<>+0(SB)/8, $0
DATA swap<>+8(SB)/8, $2
DATA swap<>+16(SB)/8, $1
DATA swap<>+24(SB)/8, $3
GLOBL swap<>(SB), RODATA|NOPTR, $64

// DRAW steps the xoshiro256** state Z0–Z3 once in the lanes of K, merge
// masked so the other lanes keep their state, and leaves in Z22 the output
// x's top 53 bits, x>>11, as a float64 (VCVTQQ2PD: exact below 2^53). It
// is Uint64's recurrence: s1·5 and ·9 as shift-and-adds, the same products
// modulo 2^64, and each new word from the old ones, s1^s2^s0, s2^s0^t,
// s0^s3^s1 and rotl(s3^s1, 45), by three-way XORs (VPTERNLOGQ $0x96).
#define DRAW(K) \
	VPSLLQ     $2, Z1, Z22; \
	VPADDQ     Z1, Z22, Z22; \
	VPROLQ     $7, Z22, Z22; \
	VPSLLQ     $3, Z22, Z23; \
	VPADDQ     Z23, Z22, Z22; \
	VPSLLQ     $17, Z1, Z23; \
	VPXORQ     Z1, Z3, Z29; \
	VPTERNLOGQ $0x96, Z0, Z2, K, Z1; \
	VPTERNLOGQ $0x96, Z23, Z0, K, Z2; \
	VPXORQ     Z29, Z0, K, Z0; \
	VPROLQ     $45, Z29, K, Z3; \
	VPSRLQ     $11, Z22, Z22; \
	VCVTQQ2PD  Z22, Z22

// MOVE sets C to the lanes whose player cooperates with probability Q,
// Bernoulli's rule, with Q53 = Q·2^53: K3 holds Q >= 1 (predicate 29,
// GE_OQ), K2 the lanes that draw, where neither Q <= 0 (22, NLE_UQ) nor
// Q >= 1 (25, NGE_UQ) holds, so a NaN draws as in Bernoulli; C is K3 or,
// where drawn, x>>11 < Q53 (17, LT_OQ). That is Float64() < Q: both sides
// of (x>>11)·2^−53 < Q scale by 2^53 exactly.
#define MOVE(Q, Q53, C) \
	VCMPPD $29, Z19, Q, K3; \
	VCMPPD $22, Z21, Q, K2; \
	VCMPPD $25, Z19, Q, K4; \
	KANDW  K4, K2, K2; \
	DRAW(K2); \
	VCMPPD $17, Q53, Z22, K2, C; \
	KORW   K3, C, C

// func playMixed8(l *lanes, rounds int, drawErr bool)
//
// Each 64-bit lane plays one match of playMixed, round by round: it
// gathers p0[st0] and p1[st1] from its own tables (VGATHERQPD), draws
// player 0's move and then player 1's where the probability is strictly
// inside (0, 1), makes two unmasked error draws where drawErr, each
// flipping its player's move where Float64() < eps, looks its two payoffs
// up by joint move (VPERMPD) and adds them to its totals (VADDPD) in round
// order. The joint move m0<<1|m1 starts at l.start and each event XORs
// its bit into it: a cooperation or an error flip. No fused multiply-add
// and no reassociation: each lane's sums and draws are playMixed's, so its
// Result and stream are too.
//
// Registers: Z0–Z3 the streams, Z4/Z5 each player's state, Z6/Z7 the
// totals, Z8/Z9 each lane's table addresses /8, Z10 the state mask,
// Z11/Z12 the score tables, Z13 eps·2^53, Z14 2^53, Z15 swap, Z16 the
// start, Z17/Z18 the integers 2 and 1, Z19 1.0, Z21 0.0; K7 all lanes.
TEXT ·playMixed8(SB), NOSPLIT, $0-17
	MOVQ         l+0(FP), AX
	MOVQ         rounds+8(FP), CX
	MOVBLZX      drawErr+16(FP), DX
	VMOVDQU64    0(AX), Z0
	VMOVDQU64    64(AX), Z1
	VMOVDQU64    128(AX), Z2
	VMOVDQU64    192(AX), Z3
	VMOVDQU64    256(AX), Z8
	VPSRLQ       $3, Z8, Z8
	VMOVDQU64    320(AX), Z9
	VPSRLQ       $3, Z9, Z9
	VMOVDQU64    384(AX), Z10
	VMOVUPD      448(AX), Z11
	VMOVUPD      512(AX), Z12
	VMOVDQU64    640(AX), Z16
	VMOVDQU64    swap<>(SB), Z15
	MOVQ         $0x4340000000000000, BX
	VPBROADCASTQ BX, Z14
	VMULPD       576(AX), Z14, Z13
	MOVQ         $0x3FF0000000000000, BX
	VPBROADCASTQ BX, Z19
	MOVQ         $2, BX
	VPBROADCASTQ BX, Z17
	MOVQ         $1, BX
	VPBROADCASTQ BX, Z18
	VPXORQ       Z21, Z21, Z21
	VPXORQ       Z4, Z4, Z4
	VPXORQ       Z5, Z5, Z5
	VPXORQ       Z6, Z6, Z6
	VPXORQ       Z7, Z7, Z7
	KXNORW       K7, K7, K7
	XORQ         R8, R8               // the gathers' base: the lanes hold whole addresses
	TESTQ        CX, CX
	JLE          done

round:
	VPADDQ     Z8, Z4, Z27
	KXNORW     K1, K1, K1
	VGATHERQPD (R8)(Z27*8), K1, Z24
	VPADDQ     Z9, Z5, Z28
	KXNORW     K1, K1, K1
	VGATHERQPD (R8)(Z28*8), K1, Z25
	VMULPD     Z14, Z24, Z30
	VMULPD     Z14, Z25, Z31
	MOVE(Z24, Z30, K5)
	MOVE(Z25, Z31, K6)
	VMOVDQA64  Z16, Z26
	VPXORQ     Z17, Z26, K5, Z26      // player 0 cooperates
	VPXORQ     Z18, Z26, K6, Z26      // player 1 cooperates
	TESTQ      DX, DX
	JZ         scored
	DRAW(K7)
	VCMPPD     $17, Z13, Z22, K4      // player 0's move flips
	VPXORQ     Z17, Z26, K4, Z26
	DRAW(K7)
	VCMPPD     $17, Z13, Z22, K4      // and player 1's
	VPXORQ     Z18, Z26, K4, Z26

scored:
	VPERMPD    Z11, Z26, Z27
	VADDPD     Z27, Z6, Z6
	VPERMPD    Z12, Z26, Z27
	VADDPD     Z27, Z7, Z7
	VPERMQ     Z15, Z26, Z27
	VPSLLQ     $2, Z4, Z4
	VPTERNLOGQ $0xA8, Z10, Z26, Z4   // st0 = (st0<<2 | jm) & mask
	VPSLLQ     $2, Z5, Z5
	VPTERNLOGQ $0xA8, Z10, Z27, Z5   // st1, from player 1's view of jm
	DECQ       CX
	JNZ        round

done:
	VMOVDQU64 Z0, 0(AX)
	VMOVDQU64 Z1, 64(AX)
	VMOVDQU64 Z2, 128(AX)
	VMOVDQU64 Z3, 192(AX)
	VMOVUPD   Z6, 704(AX)
	VMOVUPD   Z7, 768(AX)
	VZEROUPPER
	RET
