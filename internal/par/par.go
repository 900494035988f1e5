// Package par runs a loop over an index range on a bounded set of
// goroutines, the fan-out every parallel recovery sweep shares.
package par

import "sync"

// Ranges splits [lo, hi) into at most w contiguous, ascending, near-equal
// ranges (w <= 0 counts as 1) and calls fn(i, lo, hi) once for the i-th of
// them; an empty [lo, hi) yields no call. It returns when every call has
// returned. A single range runs on the caller's goroutine, so one worker is
// the exact sequential loop; otherwise each range gets a goroutine. Callers
// that collect per-range results index them by i, which follows range
// order, so a merge in i order reproduces the sequential sweep.
func Ranges(lo, hi int64, w int, fn func(i int, lo, hi int64)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if w < 1 {
		w = 1
	}
	if int64(w) > n {
		w = int(n)
	}
	if w == 1 {
		fn(0, lo, hi)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		s, e := lo+n*int64(i)/int64(w), lo+n*int64(i+1)/int64(w)
		go func(i int) {
			defer wg.Done()
			fn(i, s, e)
		}(i)
	}
	wg.Wait()
}
