// SHA-1 block function on the x86 SHA extensions (SHA1RNDS4, SHA1NEXTE,
// SHA1MSG1, SHA1MSG2), after Intel's reference schedule: four rounds per
// SHA1RNDS4, the message schedule computed four words at a time in four
// rotating registers. Delete this file, and sha1block_amd64.go, once the
// toolchain's crypto/sha1 takes a SHA-NI path of its own.

#include "textflag.h"

// Register use:
//   X0 ABCD   X1 E0   X2 E1   X3..X6 MSG0..MSG3
//   X7 byte-swap mask   X8 ABCD at block start   X9 E0 at block start

// ROUNDS4 is one group of four rounds in the middle of the block: the next
// E is derived from m0, four more schedule words are completed into m1 and
// started in m3, and m2 takes m0's contribution.
#define ROUNDS4(ea, eb, m0, m1, m2, m3, f) \
	SHA1NEXTE m0, ea      \
	MOVO      X0, eb      \
	SHA1MSG2  m0, m1      \
	SHA1RNDS4 $f, ea, X0  \
	SHA1MSG1  m0, m3      \
	PXOR      m0, m2

// func blockSHANI(dig *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ dig+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	SHRQ $6, DX
	JZ   done

	MOVOU  (DI), X0
	PSHUFD $0x1b, X0, X0
	MOVL   16(DI), AX
	PXOR   X1, X1
	PINSRD $3, AX, X1
	MOVOU  shufMask<>(SB), X7

loop:
	MOVO X0, X8
	MOVO X1, X9

	// Rounds 0-3.
	MOVOU     0(SI), X3
	PSHUFB    X7, X3
	PADDL     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0

	// Rounds 4-7.
	MOVOU     16(SI), X4
	PSHUFB    X7, X4
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3

	// Rounds 8-11.
	MOVOU     32(SI), X5
	PSHUFB    X7, X5
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 12-15.
	MOVOU     48(SI), X6
	PSHUFB    X7, X6
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 16-67.
	ROUNDS4(X1, X2, X3, X4, X5, X6, 0)
	ROUNDS4(X2, X1, X4, X5, X6, X3, 1)
	ROUNDS4(X1, X2, X5, X6, X3, X4, 1)
	ROUNDS4(X2, X1, X6, X3, X4, X5, 1)
	ROUNDS4(X1, X2, X3, X4, X5, X6, 1)
	ROUNDS4(X2, X1, X4, X5, X6, X3, 1)
	ROUNDS4(X1, X2, X5, X6, X3, X4, 2)
	ROUNDS4(X2, X1, X6, X3, X4, X5, 2)
	ROUNDS4(X1, X2, X3, X4, X5, X6, 2)
	ROUNDS4(X2, X1, X4, X5, X6, X3, 2)
	ROUNDS4(X1, X2, X5, X6, X3, X4, 2)
	ROUNDS4(X2, X1, X6, X3, X4, X5, 3)
	ROUNDS4(X1, X2, X3, X4, X5, X6, 3)

	// Rounds 68-71.
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6

	// Rounds 72-75.
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0

	// Rounds 76-79.
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1RNDS4 $3, X2, X0

	// Add this block's result into the running state.
	SHA1NEXTE X9, X1
	PADDL     X8, X0

	ADDQ $64, SI
	DECQ DX
	JNZ  loop

	PSHUFD $0x1b, X0, X0
	MOVOU  X0, (DI)
	PEXTRD $3, X1, AX
	MOVL   AX, 16(DI)

done:
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// shufMask reverses the 16 bytes of a register: big-endian message words
// become host order, with W0 in the top lane where SHA1RNDS4 expects it.
DATA shufMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA shufMask<>+8(SB)/8, $0x0001020304050607
GLOBL shufMask<>(SB), RODATA, $16
