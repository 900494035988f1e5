package fixtures

import "denova/internal/pmem"

// lineInsertBad is lineInsert with the Persist of the entry's line dropped:
// the five stores sit in the cache when the function returns, and the
// delete pointer persisted after them names an entry a crash may never have
// seen. PersistStore64 flushes its own word only. Exactly one persistcheck
// diagnostic.
func lineInsertBad(d *pmem.Device, entry, slot int64) {
	d.PersistStore64(slot+32, 7)
	d.Store64(entry+40, 0x1111)
	d.Store64(entry+48, 0x2222)
	d.Store64(entry+56, 0x3333)
	d.Store64(entry+8, 42)
	d.Store64(entry, 1<<32)
}
