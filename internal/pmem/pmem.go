// Package pmem models a byte-addressable persistent-memory device such as an
// Intel Optane DC PM module.
//
// The model captures the two properties every argument in the DeNOVA paper
// rests on:
//
//  1. Persistence granularity. CPU stores land in a volatile cache; only a
//     cache-line flush followed by a fence makes a 64-byte line durable. The
//     device keeps a "dirty line" overlay recording the last persisted
//     content of every line that has been stored to but not yet flushed.
//     Simulating a crash discards (or selectively evicts) that overlay,
//     yielding exactly the set of states a real power failure could expose.
//
//  2. Asymmetric media latency. Reads are charged per cache line touched and
//     persists per line flushed, according to a configurable LatencyProfile,
//     by spinning the calling goroutine. An optional bandwidth governor
//     scales latency with the number of concurrent accessors to reproduce
//     device saturation.
//
// A charged call times its modelled latency from its entry, so the
// simulator's own work (the copy, the counters, the locks) overlaps the
// modelled wait: the call takes max(host, modelled) wall time, not their
// sum. A wait shorter than one clock read is accounted but not timed.
//
// All counters are cheap atomics and are always maintained, so experiments
// can report NVM access counts even with the zero latency profile; counts
// and SimLatencyNs are exact whatever the host.
package pmem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// CacheLineSize is the persistence granularity in bytes.
	CacheLineSize = 64
	// PageSize is the allocation granularity used by file systems on the
	// device (and the default NOVA block size).
	PageSize = 4096
)

// ErrCrashInjected is the panic value raised when an armed crash point
// fires. Harness code recovers it; see RunToCrash.
var ErrCrashInjected = fmt.Errorf("pmem: injected crash")

// The module-wide lock hierarchy, enforced statically by the lockcheck
// analyzer (internal/analysis). A goroutine may only acquire a lock whose
// level is to the RIGHT of every lock it already holds. pmem sits at the
// bottom (rightmost) because every layer above it ends up in Store64/Flush
// with its own locks held; the word stripe nests inside the line shard
// (Store64 holds atomMu while saveOld takes dirty[i].mu).
//
//denova:lockorder dedup.quiesce < nova.inode < nova.stage < nova.reclaim < nova.pingate < nova.limbo < nova.alloc < nova.imu < dwq.shard < dwq.doorbell < dedup.tick < dedup.idle < fact.chain < fact.reorder < fact.iaa < obs.registry < pmem.word < pmem.line < pmem.shadow

const dirtyShards = 64

// dirtyShard records, per cache line, the content the persistent media held
// before the first unflushed store to that line. n mirrors len(old) as an
// atomic so hot paths can skip the lock when the shard is clean.
type dirtyShard struct {
	mu  sync.Mutex //denova:locks(pmem.line)
	n   int32
	old map[int64][CacheLineSize]byte // line index -> previous persisted content
}

// Device is a simulated persistent-memory device. All methods are safe for
// concurrent use.
type Device struct {
	buf  []byte // current (volatile-visible) contents
	size int64

	prof      LatencyProfile
	inflightR int32 // concurrent readers (bandwidth governor)
	inflightW int32 // concurrent writers/persisters

	dirty      [dirtyShards]dirtyShard
	dirtyCount int64 // total dirty lines across shards (atomic)

	// word-granular lock striping for atomic 8-byte operations
	atomMu [dirtyShards]sync.Mutex //denova:locks(pmem.word)

	stats Stats

	// shadow ordering tracker (see shadow.go); off by default
	shadowOn  int32
	fenceWork int64 // flush-class calls since the last fence
	shadow    shadowState

	// crash injection
	crashArmed int32 // 1 when crashAt is active
	crashAt    int64 // persist-op ordinal that triggers the crash
	persistOps int64
	dead       int32 // 1 after an injected crash fired; device is frozen

	// onCrash, when set, runs exactly once as the injected crash fires,
	// before the panic unwinds — the observability layer uses it to freeze
	// the trace ring so the final pre-crash events survive for post-mortem
	// dumps. It must not touch the device.
	onCrash func()
}

// New creates a device of the given size (rounded up to a page multiple)
// filled with zeros, all of it considered persisted.
func New(size int64, prof LatencyProfile) *Device {
	if size <= 0 {
		panic("pmem: non-positive device size")
	}
	if r := size % PageSize; r != 0 {
		size += PageSize - r
	}
	d := &Device{buf: make([]byte, size), size: size, prof: prof}
	for i := range d.dirty {
		d.dirty[i].old = make(map[int64][CacheLineSize]byte)
	}
	return d
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return d.size }

// Profile returns the device's latency profile.
func (d *Device) Profile() LatencyProfile { return d.prof }

// SetProfile replaces the latency profile. Intended for harness use between
// phases (e.g. fill with zero latency, then measure); not synchronized with
// in-flight accesses.
func (d *Device) SetProfile(p LatencyProfile) { d.prof = p }

func (d *Device) check(off int64, n int) {
	if off < 0 || off+int64(n) > d.size {
		panic(fmt.Sprintf("pmem: access [%d,%d) out of device bounds %d", off, off+int64(n), d.size))
	}
}

func lineOf(off int64) int64 { return off / CacheLineSize }

// linesSpanned returns the number of cache lines the byte range touches.
func linesSpanned(off int64, n int) int64 {
	if n <= 0 {
		return 0
	}
	return lineOf(off+int64(n)-1) - lineOf(off) + 1
}

// Read copies device contents into p, charging one access overhead (media
// latency) plus per-line read cost (media bandwidth).
func (d *Device) Read(off int64, p []byte) {
	d.check(off, len(p))
	d.checkDead()
	lines := linesSpanned(off, len(p))
	c := d.chargeRead(time.Duration(lines)*d.prof.ReadPerLine + d.prof.ReadAccessOverhead)
	atomic.AddInt64(&d.stats.ReadLines, lines)
	atomic.AddInt64(&d.stats.ReadBytes, int64(len(p)))
	copy(p, d.buf[off:off+int64(len(p))])
	c.wait()
}

// LoadLines snapshots the n consecutive cache lines starting at the line
// that holds off into dst (at least n*CacheLineSize bytes). Each line is
// copied under its word stripe, so it is atomic against every Store64, CAS64
// and Add64 on that line; it is counted and charged exactly like a Read of n
// lines — one access plus n line transfers, which is what hardware does once
// a line is in the CPU cache.
func (d *Device) LoadLines(off int64, n int, dst []byte) {
	off &^= CacheLineSize - 1
	d.check(off, n*CacheLineSize)
	d.checkDead()
	if len(dst) < n*CacheLineSize {
		panic("pmem: LoadLines destination shorter than n lines")
	}
	c := d.chargeRead(time.Duration(n)*d.prof.ReadPerLine + d.prof.ReadAccessOverhead)
	for i := 0; i < n; i++ {
		mu := &d.atomMu[lineOf(off)%dirtyShards]
		mu.Lock()
		copy(dst[i*CacheLineSize:(i+1)*CacheLineSize], d.buf[off:])
		mu.Unlock()
		off += CacheLineSize
	}
	atomic.AddInt64(&d.stats.ReadLines, int64(n))
	atomic.AddInt64(&d.stats.ReadBytes, int64(n)*CacheLineSize)
	c.wait()
}

// LoadLine is LoadLines for the single line that holds off.
func (d *Device) LoadLine(off int64, dst *[CacheLineSize]byte) { d.LoadLines(off, 1, dst[:]) }

// Write performs cached stores: the new contents are visible immediately but
// are not durable until the covering lines are flushed. No media latency is
// charged (store latency is DRAM-like on Optane thanks to the write buffer).
func (d *Device) Write(off int64, p []byte) {
	d.check(off, len(p))
	d.checkDead()
	atomic.AddInt64(&d.stats.WrittenBytes, int64(len(p)))
	d.saveOld(off, len(p))
	copy(d.buf[off:], p)
}

// WriteNT performs a non-temporal (streaming) store: contents bypass the
// cache and are durable line by line as the copy proceeds. Each line is a
// persist point for crash injection. Media write latency is charged.
func (d *Device) WriteNT(off int64, p []byte) {
	d.check(off, len(p))
	d.checkDead()
	if len(p) == 0 {
		return
	}
	lines := linesSpanned(off, len(p))
	c := d.chargeWrite(time.Duration(lines) * d.prof.WritePerLine)
	defer c.wait() // an injected crash still releases the governor slot
	atomic.AddInt64(&d.stats.WrittenBytes, int64(len(p)))
	// Fast path: no crash injector armed — one copy, then the pre-images of
	// any dirty lines it covered are retired (an NT store persists each line
	// it touches whole). The bookkeeping must stay far below the modelled
	// media cost, or T_w measurements would report simulator overhead
	// instead of device behaviour.
	if atomic.LoadInt32(&d.crashArmed) == 0 {
		copy(d.buf[off:], p)
		if atomic.LoadInt64(&d.dirtyCount) != 0 {
			for l, last := lineOf(off), lineOf(off)+lines; l < last; l++ {
				d.persistLine(l)
			}
		}
		atomic.AddInt64(&d.stats.NTLines, lines)
		atomic.AddInt64(&d.persistOps, lines)
		if d.ShadowEnabled() {
			atomic.AddInt64(&d.fenceWork, 1)
		}
		return
	}
	// Slow path: copy and persist line by line so an injected crash can
	// land mid-copy.
	pos := off
	rem := p
	for len(rem) > 0 {
		lineEnd := (lineOf(pos) + 1) * CacheLineSize
		n := int(lineEnd - pos)
		if n > len(rem) {
			n = len(rem)
		}
		// An NT store lands directly in the persisted image; any saved
		// pre-image for the line is obsolete (the whole line persists).
		copy(d.buf[pos:], rem[:n])
		d.persistLine(lineOf(pos))
		atomic.AddInt64(&d.stats.NTLines, 1)
		d.persistPoint()
		pos += int64(n)
		rem = rem[n:]
	}
	if d.ShadowEnabled() {
		atomic.AddInt64(&d.fenceWork, 1)
	}
}

// Flush makes the cache lines covering [off, off+n) durable and charges
// media write latency per line. Each line is a persist point.
func (d *Device) Flush(off int64, n int) {
	d.check(off, n)
	d.checkDead()
	if n <= 0 {
		return
	}
	first, last := lineOf(off), lineOf(off+int64(n)-1)
	c := d.chargeWrite(time.Duration(last-first+1)*d.prof.WritePerLine + d.prof.FlushOverhead)
	defer c.wait() // an injected crash still releases the governor slot
	redundant := int64(0)
	for l := first; l <= last; l++ {
		if !d.persistLine(l) {
			redundant++
		}
		atomic.AddInt64(&d.stats.FlushedLines, 1)
		d.persistPoint()
	}
	if d.ShadowEnabled() {
		d.shadowFlush(redundant)
	}
}

// Fence orders prior flushes. In this model flushes are immediately durable,
// so Fence only charges its overhead and counts the event; it is kept in the
// API so call sites document the ordering they rely on.
func (d *Device) Fence() {
	d.checkDead()
	c := d.chargeWrite(d.prof.FenceOverhead)
	atomic.AddInt64(&d.stats.Fences, 1)
	if d.ShadowEnabled() {
		d.shadowFence()
	}
	c.wait()
}

// Persist is the common store-barrier idiom: flush the given range, then
// fence.
func (d *Device) Persist(off int64, n int) {
	d.Flush(off, n)
	d.Fence()
}

// Load64 atomically reads the 8-byte little-endian word at off, which must
// be 8-byte aligned. Charged as a one-line media read.
func (d *Device) Load64(off int64) uint64 {
	d.check(off, 8)
	d.checkDead()
	if off%8 != 0 {
		panic("pmem: unaligned Load64")
	}
	c := d.chargeRead(d.prof.ReadPerLine + d.prof.ReadAccessOverhead)
	mu := &d.atomMu[lineOf(off)%dirtyShards]
	mu.Lock()
	v := binary.LittleEndian.Uint64(d.buf[off:])
	mu.Unlock()
	atomic.AddInt64(&d.stats.ReadLines, 1)
	c.wait()
	return v
}

// Store64 atomically writes an 8-byte little-endian word at off (8-byte
// aligned) as a cached store; it is durable only after Flush+Fence. The
// 8 bytes never span a cache line, so they persist together — this is the
// "atomic 64-bit write" NOVA and FACT consistency rely on.
func (d *Device) Store64(off int64, v uint64) {
	d.check(off, 8)
	d.checkDead()
	if off%8 != 0 {
		panic("pmem: unaligned Store64")
	}
	mu := &d.atomMu[lineOf(off)%dirtyShards]
	mu.Lock()
	d.saveOld(off, 8)
	binary.LittleEndian.PutUint64(d.buf[off:], v)
	mu.Unlock()
	atomic.AddInt64(&d.stats.WrittenBytes, 8)
}

// PersistStore64 is Store64 followed by Flush+Fence of the word.
func (d *Device) PersistStore64(off int64, v uint64) {
	d.Store64(off, v) //denova:persist-ok this IS the atomic-persist primitive the checker steers callers to
	d.Persist(off, 8)
}

// CAS64 performs an atomic compare-and-swap on the 8-byte word at off. The
// store, if it happens, is cached (flush separately to persist).
func (d *Device) CAS64(off int64, old, new uint64) bool {
	d.check(off, 8)
	d.checkDead()
	if off%8 != 0 {
		panic("pmem: unaligned CAS64")
	}
	mu := &d.atomMu[lineOf(off)%dirtyShards]
	mu.Lock()
	cur := binary.LittleEndian.Uint64(d.buf[off:])
	if cur != old {
		mu.Unlock()
		return false
	}
	d.saveOld(off, 8)
	binary.LittleEndian.PutUint64(d.buf[off:], new)
	mu.Unlock()
	atomic.AddInt64(&d.stats.WrittenBytes, 8)
	return true
}

// Add64 atomically adds delta (two's complement) to the word at off and
// returns the new value. Cached store semantics.
func (d *Device) Add64(off int64, delta uint64) uint64 {
	d.check(off, 8)
	d.checkDead()
	if off%8 != 0 {
		panic("pmem: unaligned Add64")
	}
	mu := &d.atomMu[lineOf(off)%dirtyShards]
	mu.Lock()
	d.saveOld(off, 8)
	v := binary.LittleEndian.Uint64(d.buf[off:]) + delta
	binary.LittleEndian.PutUint64(d.buf[off:], v)
	mu.Unlock()
	atomic.AddInt64(&d.stats.WrittenBytes, 8)
	return v
}

// saveOld records the persisted content of every line in [off, off+n) that
// is not already dirty.
func (d *Device) saveOld(off int64, n int) {
	first, last := lineOf(off), lineOf(off+int64(n)-1)
	for l := first; l <= last; l++ {
		sh := &d.dirty[l%dirtyShards]
		sh.mu.Lock()
		if _, ok := sh.old[l]; !ok {
			sh.old[l] = [CacheLineSize]byte(d.buf[l*CacheLineSize:])
			atomic.AddInt32(&sh.n, 1)
			atomic.AddInt64(&d.dirtyCount, 1)
		}
		sh.mu.Unlock()
	}
}

// persistLine marks a line durable by dropping its saved pre-image,
// reporting whether the line actually had unflushed stores (false = the
// flush was redundant, which the shadow tracker counts). The lock is
// skipped when the shard has no dirty lines at all — the common case on the
// bulk data path, where the simulation bookkeeping must stay far cheaper
// than the modelled media latency.
func (d *Device) persistLine(l int64) bool {
	sh := &d.dirty[l%dirtyShards]
	if atomic.LoadInt32(&sh.n) == 0 {
		return false
	}
	sh.mu.Lock()
	_, wasDirty := sh.old[l]
	if wasDirty {
		delete(sh.old, l)
		atomic.AddInt32(&sh.n, -1)
		atomic.AddInt64(&d.dirtyCount, -1)
	}
	sh.mu.Unlock()
	return wasDirty
}

// DirtyLines returns the number of cache lines with unflushed stores.
func (d *Device) DirtyLines() int {
	n := 0
	for i := range d.dirty {
		sh := &d.dirty[i]
		sh.mu.Lock()
		n += len(sh.old)
		sh.mu.Unlock()
	}
	return n
}
