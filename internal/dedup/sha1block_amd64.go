package dedup

import (
	"encoding/binary"

	"denova/internal/fact"
)

// blockSHANI runs the SHA-1 compression function over p, whose length is a
// multiple of 64, on the x86 SHA extensions (sha1block_amd64.s).
//
//go:noescape
func blockSHANI(dig *[5]uint32, p []byte)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// hasSHANI reports whether the CPU has everything blockSHANI executes: the
// SHA extensions, SSSE3 (PSHUFB) and SSE4.1 (PINSRD, PEXTRD).
func hasSHANI() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const ssse3, sse41, sha = 1 << 9, 1 << 19, 1 << 29
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&sha != 0
}

func init() {
	if hasSHANI() {
		strongKernel = sumSHANI
	}
}

// sumSHANI is SHA-1 over p on blockSHANI: the whole blocks of p in one
// call, then the Merkle–Damgård padding in one or two more.
func sumSHANI(p []byte) fact.FP {
	dig := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	n := len(p) &^ 63
	if n > 0 {
		blockSHANI(&dig, p[:n])
	}
	var tail [128]byte
	r := copy(tail[:], p[n:])
	tail[r] = 0x80
	t := 64
	if r >= 56 {
		t = 128
	}
	binary.BigEndian.PutUint64(tail[t-8:t], uint64(len(p))<<3)
	blockSHANI(&dig, tail[:t])
	var fp fact.FP
	for i, d := range dig {
		binary.BigEndian.PutUint32(fp[4*i:], d)
	}
	return fp
}
