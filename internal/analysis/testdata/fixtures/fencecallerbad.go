package fixtures

import "denova/internal/pmem"

// bareCommit relies on its callers for the flushes its fence orders, and
// one of the two has none before the call. Exactly one fencecheck
// diagnostic, at the fence.
func bareCommit(d *pmem.Device) {
	d.Fence()
	d.PersistStore64(8192, 1)
}

func commitAfterFlush(d *pmem.Device) {
	d.Write(8256, make([]byte, 64))
	d.Flush(8256, 64)
	bareCommit(d)
}

func commitCold(d *pmem.Device) {
	bareCommit(d)
}
