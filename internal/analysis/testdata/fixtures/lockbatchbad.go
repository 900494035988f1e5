package fixtures

import "denova/internal/pmem"

// releaseBatchBad inlines the locked section into the batch loop with a
// plain Unlock: a crash injected at the item's persist point unwinds past
// it, the stripe stays locked, and the next goroutine that hashes to it
// hangs. Exactly one lockcheck diagnostic.
func releaseBatchBad(s *stripedTable, d *pmem.Device, keys []uint64) {
	for _, k := range keys {
		mu := s.lockFor(k)
		mu.Lock()
		d.PersistStore64(int64(k)*64, 1)
		mu.Unlock()
	}
}
