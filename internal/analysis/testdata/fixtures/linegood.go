package fixtures

import "denova/internal/pmem"

// lineInsert mirrors FACT's same-line rule: every field of one 64-byte
// entry is stored word by word — the commit word last — and the line is
// persisted once, in the same function. persistcheck must accept the single
// Persist as covering all of the stores before it, and fencecheck must not
// mistake the second persist (a different line, after a store) for a
// repeat. Zero diagnostics in this file.
func lineInsert(d *pmem.Device, entry, slot int64) {
	d.Store64(entry+40, 0x1111)
	d.Store64(entry+48, 0x2222)
	d.Store64(entry+56, 0x3333)
	d.Store64(entry+8, 42)
	d.Store64(entry, 1<<32) // counts: the last store of the line
	d.Persist(entry, 64)
	d.PersistStore64(slot+32, 7) // the block's delete pointer, another line
}

// lineRemove is the mirror image: the commit word is the first store, the
// wipe follows, one Persist takes the entry out.
func lineRemove(d *pmem.Device, entry int64) {
	d.Store64(entry, 0)
	d.Store64(entry+40, 0)
	d.Store64(entry+48, 0)
	d.Store64(entry+56, 0)
	d.Store64(entry+8, 0)
	d.Persist(entry, 64)
}
