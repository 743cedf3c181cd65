#include "textflag.h"

// func stepAVX(next, cur []float64, pr [][4]float64)
//
// For each q < N = len(cur)/4 it writes next[4q:4q+4], the four lanes
// being the states 4q+m. Each predecessor mass cur[q+kN] is broadcast,
// multiplied by its row pr[q+kN] (VMULPD rounds every product), and the
// four products are added left to right, k = 0..3 (VADDPD): lane for lane
// the Go gather's sum. No fused multiply-add: fusing skips the product's
// rounding and changes the bits.
TEXT ·stepAVX(SB), NOSPLIT, $0-72
	MOVQ next_base+0(FP), DI
	MOVQ cur_base+24(FP), SI
	MOVQ cur_len+32(FP), CX
	MOVQ pr_base+48(FP), DX
	SHRQ $2, CX
	JZ   done
	MOVQ CX, R8
	SHLQ $3, R8              // R8: a quarter of cur, in bytes
	MOVQ CX, R9
	SHLQ $5, R9              // R9: a quarter of pr, in bytes
	LEAQ (SI)(R8*2), BX      // BX: &cur[q+2N]
	LEAQ (DX)(R9*2), AX      // AX: &pr[q+2N]

loop:
	VBROADCASTSD (SI), Y0
	VBROADCASTSD (SI)(R8*1), Y1
	VBROADCASTSD (BX), Y2
	VBROADCASTSD (BX)(R8*1), Y3
	VMULPD       (DX), Y0, Y0
	VMULPD       (DX)(R9*1), Y1, Y1
	VMULPD       (AX), Y2, Y2
	VMULPD       (AX)(R9*1), Y3, Y3
	VADDPD       Y1, Y0, Y0
	VADDPD       Y2, Y0, Y0
	VADDPD       Y3, Y0, Y0
	VMOVUPD      Y0, (DI)
	ADDQ         $8, SI
	ADDQ         $8, BX
	ADDQ         $32, DX
	ADDQ         $32, AX
	ADDQ         $32, DI
	DECQ         CX
	JNZ          loop

done:
	VZEROUPPER
	RET
