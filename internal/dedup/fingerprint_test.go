package dedup

import (
	"crypto/sha1"
	"math/rand"
	"testing"

	"denova/internal/fact"
)

// strongPaths names every way Strong can compute SHA-1 on this host: the
// crypto/sha1 fallback always, the CPU kernel where init selected one.
func strongPaths() map[string]func(p []byte) fact.FP {
	paths := map[string]func(p []byte) fact.FP{
		"fallback": func(p []byte) fact.FP { return fact.FP(sha1.Sum(p)) },
	}
	if strongKernel != nil {
		paths["kernel"] = strongKernel
	}
	return paths
}

// strongLengths are the lengths TestStrongMatchesSHA1 checks: every length
// up to 130, then each side of every 64-byte block boundary up to 9,000,
// plus a page.
func strongLengths() []int {
	var ns []int
	for n := 0; n <= 130; n++ {
		ns = append(ns, n)
	}
	for b := 192; b <= 9000; b += 64 {
		ns = append(ns, b-1, b, b+1)
	}
	return append(ns, ChunkSize)
}

// TestStrongMatchesSHA1 checks every SHA-1 path against crypto/sha1 on
// patterned and random bytes, across block and padding boundaries.
func TestStrongMatchesSHA1(t *testing.T) {
	t.Parallel()
	patterned := make([]byte, 9001)
	for i := range patterned {
		patterned[i] = byte(i*7 + i>>8)
	}
	random := make([]byte, len(patterned))
	rand.New(rand.NewSource(1)).Read(random)
	for name, sum := range strongPaths() {
		for _, buf := range [][]byte{patterned, random} {
			for _, n := range strongLengths() {
				if got, want := sum(buf[:n]), fact.FP(sha1.Sum(buf[:n])); got != want {
					t.Fatalf("%s: SHA-1 of %d bytes = %x, want %x", name, n, got, want)
				}
			}
		}
	}
	if got := Strong(patterned[:ChunkSize]); got != fact.FP(sha1.Sum(patterned[:ChunkSize])) {
		t.Fatal("Strong disagrees with crypto/sha1")
	}
}

// FuzzStrong checks Strong against crypto/sha1 on arbitrary input. Plain
// go test replays the seeds below: the padding cases either side of one and
// two blocks, and a page.
func FuzzStrong(f *testing.F) {
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 128, ChunkSize} {
		seed := make([]byte, n)
		for i := range seed {
			seed[i] = byte(i*13 + n)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		want := fact.FP(sha1.Sum(p))
		for name, sum := range strongPaths() {
			if got := sum(p); got != want {
				t.Fatalf("%s: SHA-1 of %d bytes = %x, want %x", name, len(p), got, want)
			}
		}
	})
}
