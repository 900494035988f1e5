package fixtures

import "denova/internal/pmem"

// relinkCommit mirrors nova's batched relink commit: each entry's lines are
// flushed without fencing, one fence orders the whole batch, and the atomic
// tail store publishes it. The per-entry Flush (not Persist) is the point —
// persistcheck must accept flush-only coverage when a later fence orders
// it, and fencecheck must see the fence as preceded by flush work. Zero
// diagnostics in this file.
func relinkCommit(d *pmem.Device) {
	for i := int64(0); i < 4; i++ {
		d.Write(i*64, make([]byte, 64))
		d.Flush(i*64, 64)
	}
	d.Fence()
	d.PersistStore64(4096, 1)
}

// logAppend / logCommit split the same batch across nova's log primitives:
// the append flushes without fencing, and the commit's fence orders flushes
// it did not issue itself — every caller appends before it commits, which
// is what fencecheck must see.
func logAppend(d *pmem.Device, off int64) {
	d.Write(off, make([]byte, 64))
	d.Flush(off, 64)
}

func logCommit(d *pmem.Device) {
	d.Fence()
	d.PersistStore64(4096, 1)
}

func logTransaction(d *pmem.Device) {
	logAppend(d, 0)
	logAppend(d, 64)
	logCommit(d)
}
