package par

import (
	"math/rand"
	"sync"
	"testing"
)

// TestRangesPartition checks, for random bounds and worker counts (w <= 0
// and hi <= lo included), that the ranges partition [lo, hi) contiguously
// in ascending order, number at most max(w, 1), are all non-empty, and that
// each fn runs exactly once.
func TestRangesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		lo := rng.Int63n(2001) - 1000
		hi := lo + rng.Int63n(301) - 50
		w := rng.Intn(24) - 4

		var mu sync.Mutex
		got := map[int][2]int64{}
		calls := 0
		Ranges(lo, hi, w, func(i int, s, e int64) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if _, dup := got[i]; dup {
				t.Errorf("lo=%d hi=%d w=%d: range %d ran twice", lo, hi, w, i)
			}
			got[i] = [2]int64{s, e}
		})

		maxRanges := w
		if maxRanges < 1 {
			maxRanges = 1
		}
		if hi <= lo {
			if calls != 0 {
				t.Fatalf("lo=%d hi=%d w=%d: %d calls for an empty span", lo, hi, w, calls)
			}
			continue
		}
		if calls != len(got) || calls > maxRanges {
			t.Fatalf("lo=%d hi=%d w=%d: %d calls, %d distinct, max %d", lo, hi, w, calls, len(got), maxRanges)
		}
		next := lo
		for i := 0; i < len(got); i++ {
			r, ok := got[i]
			if !ok {
				t.Fatalf("lo=%d hi=%d w=%d: range index %d missing", lo, hi, w, i)
			}
			if r[0] != next || r[1] <= r[0] {
				t.Fatalf("lo=%d hi=%d w=%d: range %d = %v, want non-empty from %d", lo, hi, w, i, r, next)
			}
			next = r[1]
		}
		if next != hi {
			t.Fatalf("lo=%d hi=%d w=%d: ranges end at %d", lo, hi, w, next)
		}
	}
}
