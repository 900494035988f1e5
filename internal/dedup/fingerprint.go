// Package dedup implements the DeNOVA deduplication engine of §IV: the
// deduplication work queue (DWQ), the background deduplication daemon (DD)
// with its immediate and delayed(n, m) trigger policies, the offline
// deduplication transaction of Algorithm 1, the inline-deduplication
// variant used as the paper's DENOVA-Inline baseline, the crash-recovery
// handlers of §V-C, and the background FACT scrubber.
package dedup

import (
	"crypto/sha1"
	"hash/crc32"

	"denova/internal/fact"
)

// ChunkSize is the deduplication granularity: DeNOVA chunks data into 4 KB
// blocks, matching the file-system block size (§III).
const ChunkSize = 4096

// strongKernel is the SHA-1 Strong runs when the CPU has one faster than
// crypto/sha1's: set once at init on amd64 hosts with the SHA extensions
// (sha1block_amd64.go), nil everywhere else.
var strongKernel func(p []byte) fact.FP

// Strong computes the strong fingerprint: SHA-1 over the chunk (§IV-B2).
// This is deliberately the real computation — its cost relative to the NVM
// write latency is the heart of the paper's argument (T_f > T_w, Eq. 1).
// On a CPU with the SHA extensions it takes about 3 µs per 4 KiB, against
// crypto/sha1's 6; the paper's Xeon 5218R has no such extensions, so its
// T_f is the slower one.
func Strong(chunk []byte) fact.FP {
	if strongKernel != nil {
		return strongKernel(chunk)
	}
	return fact.FP(sha1.Sum(chunk))
}

// castagnoli is the CRC-32C table backing the weak fingerprint; on amd64
// and arm64 hash/crc32 computes it with the CPU's CRC instructions.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Weak computes a cheap fingerprint, standing in for the weak hash of
// NV-Dedup's workload-adaptive scheme. It is used only by the Eq. (4)/(5)
// model-validation benchmarks: the paper shows adaptive fingerprinting
// cannot rescue inline dedup on Optane-class devices, so DeNOVA itself
// never uses it. It must stay an order of magnitude cheaper than Strong,
// even with Strong on the SHA extensions, hence a hardware CRC.
func Weak(chunk []byte) uint64 {
	return uint64(crc32.Checksum(chunk, castagnoli))
}
