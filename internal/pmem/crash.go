package pmem

import (
	"math/rand"
	"slices"
	"sync/atomic"
)

// Crash injection.
//
// A "persist point" is any event that makes a cache line durable: one line
// of a Flush, or one line of a non-temporal store. Arming the device with
// SetCrashAfter(k) makes the k-th subsequent persist point panic with
// ErrCrashInjected *after* persisting its line; sweeping k over every
// persist point of an operation enumerates all persistence prefixes the
// paper's §V-C failure analysis reasons about. Cached stores that were never
// flushed are additionally at the mercy of cache eviction on real hardware,
// which CrashImage models with CrashEvictRandom.

// CrashMode selects how unflushed cache lines are treated when a crash
// image is taken.
type CrashMode int

const (
	// CrashDropDirty discards every unflushed line: the persistent image is
	// exactly the explicitly persisted state. This is the standard model
	// for reasoning about flush-based consistency.
	CrashDropDirty CrashMode = iota
	// CrashEvictRandom persists each unflushed line independently with
	// probability ½ (driven by the given seed), modelling arbitrary cache
	// eviction before power loss. Correct recovery code must tolerate any
	// subset, since a store may become durable without ever being flushed.
	CrashEvictRandom
	// CrashKeepDirty persists every unflushed line (all stores survived
	// eviction). Included to complete the lattice of possible images.
	CrashKeepDirty
)

// SetCrashAfter arms the crash injector: the n-th future persist point
// (1-based) panics with ErrCrashInjected. n <= 0 disarms. Re-arming a device
// that already crashed revives it for a fresh experiment.
func (d *Device) SetCrashAfter(n int64) {
	if n <= 0 {
		atomic.StoreInt32(&d.crashArmed, 0)
		return
	}
	atomic.StoreInt32(&d.dead, 0)
	atomic.StoreInt64(&d.crashAt, atomic.LoadInt64(&d.persistOps)+n)
	atomic.StoreInt32(&d.crashArmed, 1)
}

// PersistOps returns the number of persist points executed so far. Run an
// operation once unarmed, read this counter, and you know the sweep range.
func (d *Device) PersistOps() int64 { return atomic.LoadInt64(&d.persistOps) }

// Crashed reports whether an injected crash has fired and the device is
// frozen. Accesses through the normal read/write API panic with
// ErrCrashInjected until the injector is re-armed; CrashImage and Clone
// remain usable (they inspect the corpse directly).
func (d *Device) Crashed() bool { return atomic.LoadInt32(&d.dead) == 1 }

// checkDead freezes the device after an injected crash: with several
// goroutines driving the device only one of them unwinds through the
// panicking persist point, and without this gate the survivors would keep
// mutating (and persisting!) state that is supposed to be dead silicon.
// Every survivor instead observes the same ErrCrashInjected on its next
// access and unwinds too. A store that was already past the gate when the
// crash fired is indistinguishable from the crash landing one interleaving
// later, so the exposed images remain exactly the reachable crash states.
func (d *Device) checkDead() {
	if atomic.LoadInt32(&d.dead) == 1 {
		panic(ErrCrashInjected)
	}
}

func (d *Device) persistPoint() {
	n := atomic.AddInt64(&d.persistOps, 1)
	if atomic.LoadInt32(&d.crashArmed) == 1 && n == atomic.LoadInt64(&d.crashAt) {
		atomic.StoreInt32(&d.crashArmed, 0)
		atomic.StoreInt32(&d.dead, 1)
		if h := d.onCrash; h != nil {
			h()
		}
		panic(ErrCrashInjected)
	}
}

// SetCrashHook installs a callback invoked exactly once when an injected
// crash fires, before the ErrCrashInjected panic unwinds. Install it before
// arming the injector; the hook must not access the device.
func (d *Device) SetCrashHook(h func()) { d.onCrash = h }

// RunToCrash executes fn, recovering an injected crash. It returns true if
// fn was interrupted by ErrCrashInjected and false if fn ran to completion.
// Any other panic propagates.
func RunToCrash(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == ErrCrashInjected {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}

// CrashImage materializes the device state a power failure would leave
// behind, as a fresh device with the same size and profile and an empty
// dirty set. The source device should not be used afterwards (the goroutines
// that were mutating it are assumed dead, as after a real crash).
func (d *Device) CrashImage(mode CrashMode, seed int64) *Device {
	img := New(d.size, d.prof)
	copy(img.buf, d.buf)
	var rng *rand.Rand
	if mode == CrashEvictRandom {
		rng = rand.New(rand.NewSource(seed))
	}
	// Walk dirty lines; for each, decide whether the volatile content
	// (already in img.buf) survives or the old persisted content is
	// restored. Lines are visited in ascending order within each shard, so
	// an eviction image depends on its seed alone and not on map order.
	var lines []int64
	for i := range d.dirty {
		sh := &d.dirty[i]
		sh.mu.Lock()
		lines = lines[:0]
		for l := range sh.old {
			lines = append(lines, l)
		}
		slices.Sort(lines)
		for _, l := range lines {
			restore := false
			switch mode {
			case CrashDropDirty:
				restore = true
			case CrashEvictRandom:
				restore = rng.Intn(2) == 0
			case CrashKeepDirty:
				restore = false
			}
			if restore {
				old := sh.old[l]
				copy(img.buf[l*CacheLineSize:], old[:])
			}
		}
		sh.mu.Unlock()
	}
	return img
}

// Clone returns an independent copy of the device including its dirty-line
// overlay. Useful for exploring several crash modes from one captured state.
func (d *Device) Clone() *Device {
	img := New(d.size, d.prof)
	copy(img.buf, d.buf)
	for i := range d.dirty {
		sh := &d.dirty[i]
		sh.mu.Lock()
		for l, old := range sh.old {
			img.dirty[i].old[l] = old
			atomic.AddInt32(&img.dirty[i].n, 1)
			atomic.AddInt64(&img.dirtyCount, 1)
		}
		sh.mu.Unlock()
	}
	return img
}
