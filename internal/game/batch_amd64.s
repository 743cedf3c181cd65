#include "textflag.h"

// swap maps a joint move m0<<1|m1 to m1<<1|m0, player 1's view of it.
DATA swap<>+0(SB)/8, $0
DATA swap<>+8(SB)/8, $2
DATA swap<>+16(SB)/8, $1
DATA swap<>+24(SB)/8, $3
GLOBL swap<>(SB), RODATA|NOPTR, $64

// flip holds player 0's bit of a joint move, 2, and player 1's, 1, each
// broadcast to every lane where used: an event XORs its player's bit into
// the move.
DATA flip<>+0(SB)/8, $2
DATA flip<>+8(SB)/8, $1
GLOBL flip<>(SB), RODATA|NOPTR, $16

// STEP steps a group's xoshiro256** state S0–S3 once in the lanes of K,
// merge masked so the other lanes keep their state, and leaves in Z29 the
// output x's top 53 bits, x>>11. It is Uint64's recurrence: s1·5 and ·9 as
// shift-and-adds, the same products modulo 2^64, and each new word from
// the old ones, s1^s2^s0, s2^s0^t, s0^s3^s1 and rotl(s3^s1, 45), by
// three-way XORs (VPTERNLOGQ $0x96).
#define STEP(S0, S1, S2, S3, K) \
	VPSLLQ     $2, S1, Z29; \
	VPADDQ     S1, Z29, Z29; \
	VPROLQ     $7, Z29, Z29; \
	VPSLLQ     $3, Z29, Z30; \
	VPADDQ     Z30, Z29, Z29; \
	VPSLLQ     $17, S1, Z30; \
	VPXORQ     S1, S3, Z31; \
	VPTERNLOGQ $0x96, S0, S2, K, S1; \
	VPTERNLOGQ $0x96, Z30, S0, K, S2; \
	VPXORQ     Z31, S0, K, S0; \
	VPROLQ     $45, Z31, K, S3; \
	VPSRLQ     $11, Z29, Z29

// MOVE sets C to the lanes whose player cooperates with probability Q,
// Bernoulli's rule: K3 holds Q >= 1 (predicate 29, GE_OQ), K2 the lanes
// that draw, where neither Q <= 0 (22, NLE_UQ) nor Q >= 1 (25, NGE_UQ)
// holds, so a NaN draws as in Bernoulli; C is K3 or, where drawn,
// float64(x>>11) < Q·2^53 (17, LT_OQ). That is Float64() < Q: VCVTQQ2PD is
// exact below 2^53, and both sides of (x>>11)·2^−53 < Q scale by 2^53
// exactly. A NaN Q compares false, so it defects.
#define MOVE(S0, S1, S2, S3, Q, C) \
	VCMPPD    $29, Z21, Q, K3; \
	VCMPPD    $22, Z22, Q, K2; \
	VCMPPD    $25, Z21, Q, K4; \
	KANDW     K4, K2, K2; \
	STEP(S0, S1, S2, S3, K2); \
	VCVTQQ2PD Z29, Z29; \
	VMULPD    Z20, Q, Z30; \
	VCMPPD    $17, Z30, Z29, K2, C; \
	KORW      K3, C, C

// MOVES gathers a group's p0[st0] and p1[st1] from each lane's own tables
// (VGATHERQPD, the lanes holding whole addresses /8 in B0/B1 and R8 zero),
// draws player 0's move and then player 1's, and leaves the joint move
// m0<<1|m1 in Z27: l.start, with each cooperation's bit XORed in.
#define MOVES(S0, S1, S2, S3, ST0, ST1, B0, B1) \
	VPADDQ       B0, ST0, Z24; \
	KXNORW       K1, K1, K1; \
	VGATHERQPD   (R8)(Z24*8), K1, Z25; \
	VPADDQ       B1, ST1, Z24; \
	KXNORW       K1, K1, K1; \
	VGATHERQPD   (R8)(Z24*8), K1, Z26; \
	MOVE(S0, S1, S2, S3, Z25, K5); \
	MOVE(S0, S1, S2, S3, Z26, K6); \
	VPBROADCASTQ 1280(AX), Z27; \
	VPXORQ.BCST  flip<>+0(SB), Z27, K5, Z27; \
	VPXORQ.BCST  flip<>+8(SB), Z27, K6, Z27

// ERRORS makes a group's two error draws in every lane, player 0's and
// then player 1's, each flipping its player's move in Z27 where
// Float64() < eps. That is x>>11 < ⌈eps·2^53⌉, compared as unsigned
// integers (VPCMPUQ predicate 1, LT), Z23 holding the threshold: for an
// integer u, u < e holds exactly when u < ⌈e⌉.
#define ERRORS(S0, S1, S2, S3) \
	STEP(S0, S1, S2, S3, K7); \
	VPCMPUQ     $1, Z23, Z29, K4; \
	VPXORQ.BCST flip<>+0(SB), Z27, K4, Z27; \
	STEP(S0, S1, S2, S3, K7); \
	VPCMPUQ     $1, Z23, Z29, K4; \
	VPXORQ.BCST flip<>+8(SB), Z27, K4, Z27

// SCORE looks a group's two payoffs up by the joint move in Z27 (VPERMPD
// from l.score), adds them to its totals F0/F1 (VADDPD) and shifts the
// move into each player's state: st0 = (st0<<2 | jm) & mask, and st1 from
// player 1's view of jm, MASK the group's state masks.
#define SCORE(ST0, ST1, F0, F1, MASK) \
	VPERMPD    896(AX), Z27, Z28; \
	VADDPD     Z28, F0, F0; \
	VPERMPD    960(AX), Z27, Z28; \
	VADDPD     Z28, F1, F1; \
	VPERMQ     swap<>(SB), Z27, Z28; \
	VPSLLQ     $2, ST0, ST0; \
	VPTERNLOGQ $0xA8, MASK, Z27, ST0; \
	VPSLLQ     $2, ST1, ST1; \
	VPTERNLOGQ $0xA8, MASK, Z28, ST1

// func playMixed16(l *lanes, rounds int, eps float64, drawErr bool)
//
// Each 64-bit lane plays one match of playMixed, round by round: it
// gathers p0[st0] and p1[st1] from its own tables, draws player 0's move
// and then player 1's where the probability is strictly inside (0, 1),
// makes two unmasked error draws where drawErr, each flipping its player's
// move where Float64() < eps, looks its two payoffs up by joint move and
// adds them to its totals in round order. The joint move m0<<1|m1 starts
// at l.start and each event XORs its bit into it: a cooperation or an
// error flip. No fused multiply-add and no reassociation: each lane's sums
// and draws are playMixed's, so its Result and stream are too.
//
// The sixteen lanes are two independent groups of eight, A and B, and each
// round of A is followed by the same round of B, so the core runs one
// group's gathers and draws while the other waits on the state its last
// round computed. Each group keeps its own state in registers: Z0–Z3 and
// Z10–Z13 the streams, Z4/Z5 and Z14/Z15 each player's state, Z6/Z7 and
// Z16/Z17 the totals, Z8/Z9 and Z18/Z19 each lane's table addresses /8.
// The groups share the rest: Z20 2^53, Z21 1.0, Z22 0.0, Z23 the error
// threshold ⌈eps·2^53⌉ (VCVTPD2UQQ rounding up, once a call), K7 all
// lanes, the temporaries Z24–Z31 and K1–K6, and the constants read from
// memory: the score tables, the state masks, swap, l.start and flip.
TEXT ·playMixed16(SB), NOSPLIT, $0-25
	MOVQ              l+0(FP), AX
	MOVQ              rounds+8(FP), CX
	MOVBLZX           drawErr+24(FP), DX
	VMOVDQU64         0(AX), Z0
	VMOVDQU64         128(AX), Z1
	VMOVDQU64         256(AX), Z2
	VMOVDQU64         384(AX), Z3
	VMOVDQU64         64(AX), Z10
	VMOVDQU64         192(AX), Z11
	VMOVDQU64         320(AX), Z12
	VMOVDQU64         448(AX), Z13
	VMOVDQU64         512(AX), Z8
	VPSRLQ            $3, Z8, Z8
	VMOVDQU64         640(AX), Z9
	VPSRLQ            $3, Z9, Z9
	VMOVDQU64         576(AX), Z18
	VPSRLQ            $3, Z18, Z18
	VMOVDQU64         704(AX), Z19
	VPSRLQ            $3, Z19, Z19
	MOVQ              $0x4340000000000000, BX
	VPBROADCASTQ      BX, Z20
	MOVQ              $0x3FF0000000000000, BX
	VPBROADCASTQ      BX, Z21
	VPXORQ            Z22, Z22, Z22
	VBROADCASTSD      eps+16(FP), Z23
	VMULPD            Z20, Z23, Z23
	VCVTPD2UQQ.RU_SAE Z23, Z23
	VPXORQ            Z4, Z4, Z4
	VPXORQ            Z5, Z5, Z5
	VPXORQ            Z6, Z6, Z6
	VPXORQ            Z7, Z7, Z7
	VPXORQ            Z14, Z14, Z14
	VPXORQ            Z15, Z15, Z15
	VPXORQ            Z16, Z16, Z16
	VPXORQ            Z17, Z17, Z17
	KXNORW            K7, K7, K7
	XORQ              R8, R8              // the gathers' base: the lanes hold whole addresses
	TESTQ             CX, CX
	JLE               done

round:
	MOVES(Z0, Z1, Z2, Z3, Z4, Z5, Z8, Z9)
	TESTQ DX, DX
	JZ    scoreA
	ERRORS(Z0, Z1, Z2, Z3)

scoreA:
	SCORE(Z4, Z5, Z6, Z7, 768(AX))
	MOVES(Z10, Z11, Z12, Z13, Z14, Z15, Z18, Z19)
	TESTQ DX, DX
	JZ    scoreB
	ERRORS(Z10, Z11, Z12, Z13)

scoreB:
	SCORE(Z14, Z15, Z16, Z17, 832(AX))
	DECQ CX
	JNZ  round

done:
	VMOVDQU64 Z0, 0(AX)
	VMOVDQU64 Z1, 128(AX)
	VMOVDQU64 Z2, 256(AX)
	VMOVDQU64 Z3, 384(AX)
	VMOVDQU64 Z10, 64(AX)
	VMOVDQU64 Z11, 192(AX)
	VMOVDQU64 Z12, 320(AX)
	VMOVDQU64 Z13, 448(AX)
	VMOVUPD   Z6, 1024(AX)
	VMOVUPD   Z16, 1088(AX)
	VMOVUPD   Z7, 1152(AX)
	VMOVUPD   Z17, 1216(AX)
	VZEROUPPER
	RET
