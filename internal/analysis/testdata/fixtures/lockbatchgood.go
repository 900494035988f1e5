package fixtures

import (
	"sync"

	"denova/internal/pmem"
)

// stripedTable mirrors FACT's chain locks: an array of stripes under one
// level, handed out by an annotated accessor.
type stripedTable struct {
	locks [4]sync.Mutex //denova:locks(fx.stripe)
}

//denova:locks(fx.stripe)
func (s *stripedTable) lockFor(key uint64) *sync.Mutex { return &s.locks[key%4] }

// releaseBatch is the batched reclaim loop: each item's stripe is taken and
// released inside releaseOne, so the loop holds one stripe at a time and the
// deferred unlock survives an injected crash at the persist point. Zero
// diagnostics in this file.
func releaseBatch(s *stripedTable, d *pmem.Device, keys []uint64) {
	for _, k := range keys {
		releaseOne(s, d, k)
	}
}

func releaseOne(s *stripedTable, d *pmem.Device, key uint64) {
	mu := s.lockFor(key)
	mu.Lock()
	defer mu.Unlock()
	d.PersistStore64(int64(key)*64, 1)
}
