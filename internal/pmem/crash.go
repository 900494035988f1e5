package pmem

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"

	"denova/internal/par"
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

// SweepMode names the crash images Sweep takes at a persist point.
type SweepMode struct {
	Mode CrashMode
	// Seeds is the number of CrashEvictRandom images per point (at least
	// one); the s-th image of point k uses seed k*7919+s. The other modes
	// take one image.
	Seeds int
	// Stride > 1 visits only points 1, 1+Stride, 1+2·Stride, … and the
	// last Tail points, for ops whose points are mostly alike (page stores).
	Stride, Tail int64
}

// visits reports whether the mode takes images at point k of total.
func (m SweepMode) visits(k, total int64) bool {
	return m.Stride <= 1 || (k-1)%m.Stride == 0 || total-k < m.Tail
}

// images returns the number of images the mode takes at a visited point.
func (m SweepMode) images() int {
	if m.Mode == CrashEvictRandom {
		return max(m.Seeds, 1)
	}
	return 1
}

func (m SweepMode) String() string {
	switch m.Mode {
	case CrashDropDirty:
		return "drop-dirty"
	case CrashKeepDirty:
		return "keep-dirty"
	}
	return "evict-random"
}

// SweepResult counts what a Sweep did: the op's persist points, the points
// it crashed at, and the images it checked.
type SweepResult struct {
	Total, Points, Images int64
}

// Sweep mechanizes the §V-C failure analysis for one operation. setup
// builds a fresh device and returns it with the op to crash; every call
// must build the same state, so the op's persist points line up. Sweep runs
// setup and the op once unarmed to count those points (0 is an error),
// then, for each point k the modes visit (every one by default), calls
// setup again, arms SetCrashAfter(k), requires that the crash fired, takes
// every image the modes ask for from that one crashed device and calls
// check on each. With no modes it takes one CrashDropDirty image.
//
// Points run on up to cap(sweepSlots) goroutines, one ascending range of k
// each (par.Ranges), so setup, op and check must not share mutable state and
// must not call testing.T's Fatal methods. A panic in any of them is a
// failure at its point. The error returned is the one at the lowest failing
// k, naming k, the mode and the seed, so it replays exactly.
func Sweep(setup func() (*Device, func() error, error), check func(img *Device, k int64) error, modes ...SweepMode) (res SweepResult, err error) {
	if len(modes) == 0 {
		modes = []SweepMode{{Mode: CrashDropDirty}}
	}
	sweepSlots <- struct{}{}
	res.Total, err = sweepProbe(setup)
	<-sweepSlots
	if err != nil {
		return res, err
	}
	var points, images atomic.Int64
	errs := make([]error, min(runtime.GOMAXPROCS(0), cap(sweepSlots)))
	par.Ranges(1, res.Total+1, len(errs), func(i int, lo, hi int64) {
		for k := lo; k < hi; k++ {
			sweepSlots <- struct{}{}
			n, err := sweepPoint(setup, check, modes, k, res.Total)
			<-sweepSlots
			if err != nil { // a range stops at its lowest failing k
				errs[i] = fmt.Errorf("k=%d/%d: %w", k, res.Total, err)
				return
			}
			if n > 0 {
				points.Add(1)
				images.Add(n)
			}
		}
	})
	res.Points, res.Images = points.Load(), images.Load()
	for _, err := range errs { // ranges ascend, so the first is the lowest k
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// sweepSlots bounds the points all Sweeps in the process run at once.
// Parallel tests each call Sweep, and every running point holds a work
// device and its crash images, so one shared bound keeps peak memory and
// CPU at about what the same tests held when each swept serially under
// go test's default -parallel, and caps it at 4 on many-core hosts.
var sweepSlots = make(chan struct{}, min(runtime.GOMAXPROCS(0), 4))

// sweepProbe runs setup and the op once unarmed and returns the op's
// persist-point count.
func sweepProbe(setup func() (*Device, func() error, error)) (int64, error) {
	dev, op, err := setup()
	if err != nil {
		return 0, fmt.Errorf("sweep setup: %w", err)
	}
	start := dev.PersistOps()
	if err := op(); err != nil {
		return 0, fmt.Errorf("sweep probe: %w", err)
	}
	total := dev.PersistOps() - start
	if total == 0 {
		return 0, fmt.Errorf("sweep: the op performed no persists")
	}
	return total, nil
}

// sweepPoint crashes the op at point k and checks the modes' images. It
// returns how many it checked (0: no mode visits k).
func sweepPoint(setup func() (*Device, func() error, error), check func(*Device, int64) error, modes []SweepMode, k, total int64) (n int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	if !slices.ContainsFunc(modes, func(m SweepMode) bool { return m.visits(k, total) }) {
		return 0, nil
	}
	dev, op, err := setup()
	if err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	dev.SetCrashAfter(k)
	var opErr error
	if !RunToCrash(func() { opErr = op() }) {
		return 0, fmt.Errorf("crash did not fire (op returned %v)", opErr)
	}
	for _, m := range modes {
		if !m.visits(k, total) {
			continue
		}
		for s := 0; s < m.images(); s++ {
			seed := k*7919 + int64(s)
			if err := check(dev.CrashImage(m.Mode, seed), k); err != nil {
				return n, fmt.Errorf("%v seed=%d: %w", m, seed, err)
			}
			n++
		}
	}
	return n, nil
}
