// Package layout provides the binary-layout helpers shared by every on-PM
// structure: little-endian field access into fixed-size records, alignment
// arithmetic, and the CRC32-C checksum used to validate log entries and the
// superblock.
package layout

import (
	"encoding/binary"
	"hash/crc32"
)

// castagnoli is the CRC32-C table (the polynomial used by persistent-memory
// file systems for metadata checksums, hardware-accelerated on x86).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C of p.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Record is a fixed-size on-PM record buffer with little-endian accessors.
// Methods panic on out-of-range access, which always indicates a layout bug
// rather than a runtime condition.
type Record []byte

func (r Record) U8(off int) uint8         { return r[off] }
func (r Record) PutU8(off int, v uint8)   { r[off] = v }
func (r Record) U32(off int) uint32       { return binary.LittleEndian.Uint32(r[off:]) }
func (r Record) PutU32(off int, v uint32) { binary.LittleEndian.PutUint32(r[off:], v) }
func (r Record) U64(off int) uint64       { return binary.LittleEndian.Uint64(r[off:]) }
func (r Record) PutU64(off int, v uint64) { binary.LittleEndian.PutUint64(r[off:], v) }

// Bytes returns the sub-slice [off, off+n).
func (r Record) Bytes(off, n int) []byte { return r[off : off+n] }

// Align rounds v up to the next multiple of a (a must be a power of two).
func Align(v, a int64) int64 { return (v + a - 1) &^ (a - 1) }

// DivCeil returns ceil(a/b) for positive b.
func DivCeil(a, b int64) int64 { return (a + b - 1) / b }

// Log2Ceil returns the smallest n such that 2^n >= v, for v >= 1.
func Log2Ceil(v int64) int {
	n := 0
	for int64(1)<<n < v {
		n++
	}
	return n
}
