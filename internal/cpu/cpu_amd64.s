#include "textflag.h"

// func Probe() (avx, avx512 bool)
//
// CPUID leaf 1 reports OSXSAVE in ECX bit 27 and AVX in bit 28. With
// OSXSAVE set, XGETBV(0) says which register state the OS saves across
// context switches: bits 1 and 2 the XMM and YMM halves (mask 0x06), and
// bits 5–7 the opmask registers and the upper ZMM halves too (mask 0xE6).
// CPUID leaf 7, subleaf 0, reports AVX-512 F in EBX bit 16 and DQ in bit
// 17; it exists where leaf 0's EAX, the highest leaf, is at least 7.
TEXT ·Probe(SB), NOSPLIT, $0-2
	MOVB $0, avx+0(FP)
	MOVB $0, avx512+1(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	MOVL AX, SI                 // SI: the highest leaf
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX
	JCC  done                   // no OSXSAVE: XGETBV faults
	MOVL CX, DI
	XORL CX, CX
	XGETBV
	MOVL AX, R8                 // R8: XCR0's low word
	ANDL $0x06, AX
	CMPL AX, $0x06
	JNE  done
	BTL  $28, DI
	JCC  done
	MOVB $1, avx+0(FP)
	CMPL SI, $7
	JLT  done
	ANDL $0xE6, R8
	CMPL R8, $0xE6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x30000, BX
	CMPL BX, $0x30000
	JNE  done
	MOVB $1, avx512+1(FP)

done:
	RET
