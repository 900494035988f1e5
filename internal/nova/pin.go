package nova

import (
	"slices"
	"sync"
	"sync/atomic"
)

// freePins lets the dedup daemon read data blocks without the inode lock.
// CoW makes that safe for a block that stays mapped: its bytes never
// change. The one unsafe case is a block that is shadowed, released and
// handed to another writer while the daemon still reads it. So while a pin
// is held, the data blocks the releaser frees wait in a DRAM limbo list
// instead of going back to the allocator, and each one leaves limbo once
// every pin taken before it was freed is released — a pin taken later
// never saw the block mapped. Nothing here is persistent: a crash loses
// limbo, and mount rebuilds the allocator from the logs.
type freePins struct {
	held atomic.Int64 // pins held; with none, freeBlock costs one load of it

	mu    sync.Mutex   //denova:locks(nova.limbo)
	seq   uint64       // numbers the pins taken so far
	open  []uint64     // seq of each pin still held, ascending
	limbo []limboBlock // blocks freed while a pin was held, oldest first

	// gate orders a forced drain against pinned reads: ReadPinned holds it
	// shared for one block, DrainReclaim exclusively to bump epoch and free
	// limbo whatever pins are held, so space in limbo never fails an
	// allocation. A pin taken before the bump refuses to read afterwards.
	gate  sync.RWMutex //denova:locks(nova.pingate)
	epoch atomic.Uint64
}

type limboBlock struct {
	block uint64
	after uint64 // the last pin seq taken before the block was freed
}

// FreePin keeps the data blocks mapped when it was taken from going back to
// the allocator until Release, so ReadPinned can read them without the
// inode lock.
type FreePin struct {
	fs         *FS
	seq, epoch uint64
}

// PinFrees takes a free-pin. The caller holds the lock of the inode whose
// blocks it will read, so every block mapped there now is freed, if at all,
// after the pin is visible to freeBlock.
func (fs *FS) PinFrees() FreePin {
	p := &fs.pins
	p.mu.Lock()
	p.seq++
	pin := FreePin{fs: fs, seq: p.seq, epoch: p.epoch.Load()}
	p.open = append(p.open, p.seq)
	p.held.Add(1)
	p.mu.Unlock()
	return pin
}

// ReadPinned copies data block block into buf, as ReadBlock, and reports
// true — or reports false without reading when a forced drain has freed
// limbo since the pin was taken, so block may belong to another writer.
func (pin *FreePin) ReadPinned(block uint64, buf []byte) bool {
	p := &pin.fs.pins
	p.gate.RLock()
	defer p.gate.RUnlock()
	if p.epoch.Load() != pin.epoch {
		return false
	}
	pin.fs.ReadBlock(block, buf)
	return true
}

// Broken reports whether a forced drain freed limbo while the pin was held.
func (pin *FreePin) Broken() bool { return pin.fs.pins.epoch.Load() != pin.epoch }

// Release drops the pin and frees the limbo blocks no remaining pin
// protects. Releasing twice is a no-op.
func (pin *FreePin) Release() {
	if pin.fs == nil {
		return
	}
	fs, p := pin.fs, &pin.fs.pins
	pin.fs = nil
	p.mu.Lock()
	defer p.mu.Unlock()
	p.open = slices.DeleteFunc(p.open, func(s uint64) bool { return s == pin.seq })
	oldest := p.seq + 1
	if len(p.open) > 0 {
		oldest = p.open[0]
	}
	n := 0
	for ; n < len(p.limbo) && p.limbo[n].after < oldest; n++ {
		fs.freeNow(p.limbo[n].block)
	}
	p.limbo = append(p.limbo[:0], p.limbo[n:]...)
	p.held.Add(-1) // after the frees: drainLimbo's fast path relies on it
}

// park puts block in limbo if a pin is held and reports whether it did.
func (p *freePins) park(block uint64) bool {
	if p.held.Load() == 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.open) == 0 {
		return false
	}
	p.limbo = append(p.limbo, limboBlock{block: block, after: p.seq})
	return true
}

// drainLimbo frees every block in limbo, pinned or not, and breaks the pins
// held: their ReadPinned calls fail from here on.
func (fs *FS) drainLimbo() {
	p := &fs.pins
	if p.held.Load() == 0 {
		return // the last Release emptied limbo
	}
	p.gate.Lock()
	defer p.gate.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, lb := range p.limbo {
		fs.freeNow(lb.block)
	}
	p.limbo = p.limbo[:0]
	if len(p.open) > 0 {
		p.epoch.Add(1)
	}
}

// FreePins reports the pins held and the blocks waiting in limbo.
func (fs *FS) FreePins() (held, limbo int) {
	p := &fs.pins
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.open), len(p.limbo)
}
