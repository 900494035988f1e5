package pmem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newDev(t *testing.T, pages int64) *Device {
	t.Helper()
	return New(pages*PageSize, ProfileZero)
}

func TestNewRoundsUpToPage(t *testing.T) {
	t.Parallel()
	d := New(PageSize+1, ProfileZero)
	if d.Size() != 2*PageSize {
		t.Fatalf("size = %d, want %d", d.Size(), 2*PageSize)
	}
}

func TestNewPanicsOnNonPositiveSize(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, ProfileZero)
}

func TestWriteReadRoundTrip(t *testing.T) {
	t.Parallel()
	d := newDev(t, 4)
	want := []byte("hello, persistent world")
	d.Write(100, want)
	got := make([]byte, len(want))
	d.Read(100, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	for _, fn := range []func(){
		func() { d.Read(PageSize-1, make([]byte, 2)) },
		func() { d.Write(-1, make([]byte, 1)) },
		func() { d.Load64(PageSize) },
		func() { d.Store64(PageSize-4, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected out-of-bounds panic")
				}
			}()
			fn()
		}()
	}
}

func TestUnalignedAtomicsPanic(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	for _, fn := range []func(){
		func() { d.Load64(1) },
		func() { d.Store64(4, 1) },
		func() { d.CAS64(12, 0, 1) },
		func() { d.Add64(20, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected unaligned panic")
				}
			}()
			fn()
		}()
	}
}

func TestUnflushedStoreLostOnCrash(t *testing.T) {
	t.Parallel()
	d := newDev(t, 4)
	d.Write(0, []byte{1, 2, 3, 4})
	img := d.CrashImage(CrashDropDirty, 0)
	got := make([]byte, 4)
	img.Read(0, got)
	if !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("unflushed store survived crash: %v", got)
	}
}

func TestFlushedStoreSurvivesCrash(t *testing.T) {
	t.Parallel()
	d := newDev(t, 4)
	d.Write(0, []byte{1, 2, 3, 4})
	d.Persist(0, 4)
	img := d.CrashImage(CrashDropDirty, 0)
	got := make([]byte, 4)
	img.Read(0, got)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("flushed store lost on crash: %v", got)
	}
}

func TestPartialFlushCrashKeepsLineGranularity(t *testing.T) {
	t.Parallel()
	d := newDev(t, 4)
	// Two stores on two different lines; flush only the first line.
	d.Write(0, []byte{0xAA})
	d.Write(CacheLineSize, []byte{0xBB})
	d.Flush(0, 1)
	img := d.CrashImage(CrashDropDirty, 0)
	b := make([]byte, 1)
	img.Read(0, b)
	if b[0] != 0xAA {
		t.Errorf("flushed line lost: %#x", b[0])
	}
	img.Read(CacheLineSize, b)
	if b[0] != 0 {
		t.Errorf("unflushed line survived: %#x", b[0])
	}
}

func TestWriteNTIsImmediatelyDurable(t *testing.T) {
	t.Parallel()
	d := newDev(t, 4)
	p := bytes.Repeat([]byte{0x5A}, 3*CacheLineSize)
	d.WriteNT(10, p) // deliberately unaligned start
	img := d.CrashImage(CrashDropDirty, 0)
	got := make([]byte, len(p))
	img.Read(10, got)
	if !bytes.Equal(got, p) {
		t.Fatal("WriteNT data lost on crash")
	}
}

func TestWriteNTOverUnflushedStore(t *testing.T) {
	t.Parallel()
	// A cached store followed by an NT store to the same line: the NT data
	// must be what survives, not the pre-store image.
	d := newDev(t, 4)
	d.Write(0, []byte{1, 1, 1, 1})
	d.WriteNT(0, []byte{2, 2})
	img := d.CrashImage(CrashDropDirty, 0)
	got := make([]byte, 4)
	img.Read(0, got)
	if got[0] != 2 || got[1] != 2 {
		t.Fatalf("NT bytes lost: %v", got)
	}
	// Bytes 2,3 were only cached-stored; they share the NT-persisted line,
	// so in this model they persist with it (line granularity).
	if got[2] != 1 || got[3] != 1 {
		t.Fatalf("line-granular persist violated: %v", got)
	}
}

func TestStore64AtomicPersistence(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	d.Store64(64, 0xDEADBEEFCAFEF00D)
	d.Persist(64, 8)
	img := d.CrashImage(CrashDropDirty, 0)
	if v := img.Load64(64); v != 0xDEADBEEFCAFEF00D {
		t.Fatalf("Load64 = %#x", v)
	}
}

func TestCAS64(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	d.Store64(0, 7)
	if d.CAS64(0, 6, 9) {
		t.Fatal("CAS succeeded with wrong expected value")
	}
	if !d.CAS64(0, 7, 9) {
		t.Fatal("CAS failed with correct expected value")
	}
	if v := d.Load64(0); v != 9 {
		t.Fatalf("after CAS, value = %d", v)
	}
}

func TestAdd64TwosComplement(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	d.Store64(0, 10)
	if v := d.Add64(0, ^uint64(0)); v != 9 { // add -1
		t.Fatalf("Add64(-1) = %d, want 9", v)
	}
}

func TestAdd64Concurrent(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				d.Add64(0, 1)
			}
		}()
	}
	wg.Wait()
	if v := d.Load64(0); v != goroutines*per {
		t.Fatalf("concurrent Add64 lost updates: %d", v)
	}
}

func TestStatsCounting(t *testing.T) {
	t.Parallel()
	d := newDev(t, 4)
	d.ResetStats()
	d.Write(0, make([]byte, 128))
	d.Flush(0, 128) // 2 lines
	d.Fence()
	d.Read(0, make([]byte, 65)) // spans 2 lines
	s := d.Stats()
	if s.FlushedLines != 2 {
		t.Errorf("FlushedLines = %d, want 2", s.FlushedLines)
	}
	if s.Fences != 1 {
		t.Errorf("Fences = %d, want 1", s.Fences)
	}
	if s.ReadLines != 2 {
		t.Errorf("ReadLines = %d, want 2", s.ReadLines)
	}
	if s.WrittenBytes != 128 {
		t.Errorf("WrittenBytes = %d, want 128", s.WrittenBytes)
	}
}

func TestStatsSub(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	d.Write(0, make([]byte, 64))
	before := d.Stats()
	d.Flush(0, 64)
	delta := d.Stats().Sub(before)
	if delta.FlushedLines != 1 || delta.WrittenBytes != 0 {
		t.Fatalf("delta = %+v", delta)
	}
}

func TestCrashInjectionAtEveryPersistPoint(t *testing.T) {
	t.Parallel()
	// Write 3 lines NT: 3 persist points. Sweeping the crash point must
	// yield strictly growing persisted prefixes.
	payload := bytes.Repeat([]byte{0xEE}, 3*CacheLineSize)
	for k := int64(1); k <= 3; k++ {
		d := newDev(t, 4)
		d.SetCrashAfter(k)
		crashed := RunToCrash(func() { d.WriteNT(0, payload) })
		if !crashed {
			t.Fatalf("k=%d: expected crash", k)
		}
		img := d.CrashImage(CrashDropDirty, 0)
		got := make([]byte, len(payload))
		img.Read(0, got)
		persisted := int64(0)
		for persisted < int64(len(got)) && got[persisted] == 0xEE {
			persisted++
		}
		if persisted != k*CacheLineSize {
			t.Fatalf("k=%d: persisted %d bytes, want %d", k, persisted, k*CacheLineSize)
		}
	}
}

func TestRunToCrashNoCrash(t *testing.T) {
	t.Parallel()
	if RunToCrash(func() {}) {
		t.Fatal("RunToCrash reported a crash for a clean run")
	}
}

func TestRunToCrashPropagatesOtherPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	RunToCrash(func() { panic("boom") })
}

func TestSetCrashAfterDisarm(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	d.SetCrashAfter(1)
	d.SetCrashAfter(0) // disarm
	if RunToCrash(func() { d.Persist(0, 8) }) {
		t.Fatal("disarmed injector fired")
	}
}

func TestCrashEvictRandomIsDeterministicPerSeed(t *testing.T) {
	t.Parallel()
	mk := func() *Device {
		d := newDev(t, 4)
		for l := 0; l < 32; l++ {
			d.Write(int64(l)*CacheLineSize, []byte{byte(l + 1)})
		}
		return d
	}
	read := func(img *Device) []byte {
		out := make([]byte, 32)
		for l := 0; l < 32; l++ {
			b := make([]byte, 1)
			img.Read(int64(l)*CacheLineSize, b)
			out[l] = b[0]
		}
		return out
	}
	a := read(mk().CrashImage(CrashEvictRandom, 42))
	b := read(mk().CrashImage(CrashEvictRandom, 42))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different eviction images")
	}
	c := read(mk().CrashImage(CrashKeepDirty, 0))
	for l := 0; l < 32; l++ {
		if c[l] != byte(l+1) {
			t.Fatalf("CrashKeepDirty dropped line %d", l)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	d.Write(0, []byte{9})
	c := d.Clone()
	d.Write(0, []byte{7})
	b := make([]byte, 1)
	c.Read(0, b)
	if b[0] != 9 {
		t.Fatalf("clone saw later write: %d", b[0])
	}
	// Clone preserves dirtiness: the store must still be lost on crash.
	img := c.CrashImage(CrashDropDirty, 0)
	img.Read(0, b)
	if b[0] != 0 {
		t.Fatalf("clone lost dirty tracking: %d", b[0])
	}
}

func TestDirtyLines(t *testing.T) {
	t.Parallel()
	d := newDev(t, 4)
	if d.DirtyLines() != 0 {
		t.Fatal("fresh device has dirty lines")
	}
	d.Write(0, make([]byte, 2*CacheLineSize))
	if n := d.DirtyLines(); n != 2 {
		t.Fatalf("DirtyLines = %d, want 2", n)
	}
	d.Persist(0, 2*CacheLineSize)
	if n := d.DirtyLines(); n != 0 {
		t.Fatalf("DirtyLines after persist = %d, want 0", n)
	}
}

func TestLatencyChargedAndCounted(t *testing.T) {
	p := LatencyProfile{Name: "test", ReadPerLine: 200 * time.Microsecond}
	d := New(PageSize, p)
	start := time.Now()
	d.Read(0, make([]byte, CacheLineSize))
	if elapsed := time.Since(start); elapsed < 150*time.Microsecond {
		t.Fatalf("latency not injected: %v", elapsed)
	}
	if s := d.Stats(); s.SimLatencyNs < int64(150*time.Microsecond) {
		t.Fatalf("SimLatencyNs = %d", s.SimLatencyNs)
	}
}

func TestProfileZeroPredicate(t *testing.T) {
	t.Parallel()
	if !ProfileZero.Zero() {
		t.Fatal("ProfileZero.Zero() = false")
	}
	if ProfileOptane.Zero() {
		t.Fatal("ProfileOptane.Zero() = true")
	}
}

// Property: for any sequence of writes, flushes and a crash, every byte of
// the crash image equals either the latest persisted content or — only for
// bytes on never-flushed lines — the previous persisted content.
func TestPropertyCrashImageConsistency(t *testing.T) {
	t.Parallel()
	f := func(ops []uint16, seed int64) bool {
		const pages = 2
		d := New(pages*PageSize, ProfileZero)
		shadowPersisted := make([]byte, pages*PageSize) // expected durable state
		shadowVolatile := make([]byte, pages*PageSize)
		flushed := make(map[int64]bool)
		val := byte(1)
		for _, op := range ops {
			off := int64(op) % (pages*PageSize - 8)
			switch op % 3 {
			case 0: // cached store of 4 bytes
				b := []byte{val, val, val, val}
				d.Write(off, b)
				copy(shadowVolatile[off:], b)
				for l := lineOf(off); l <= lineOf(off+3); l++ {
					flushed[l] = false
				}
				val++
			case 1: // flush the line containing off
				l := lineOf(off)
				d.Flush(l*CacheLineSize, CacheLineSize)
				copy(shadowPersisted[l*CacheLineSize:(l+1)*CacheLineSize],
					shadowVolatile[l*CacheLineSize:(l+1)*CacheLineSize])
				flushed[l] = true
			case 2: // NT store of 8 bytes
				b := []byte{val, val, val, val, val, val, val, val}
				d.WriteNT(off, b)
				copy(shadowVolatile[off:], b)
				// NT persists the touched lines wholesale (line granularity).
				for l := lineOf(off); l <= lineOf(off+7); l++ {
					copy(shadowPersisted[l*CacheLineSize:(l+1)*CacheLineSize],
						shadowVolatile[l*CacheLineSize:(l+1)*CacheLineSize])
					flushed[l] = true
				}
				val++
			}
		}
		img := d.CrashImage(CrashDropDirty, seed)
		got := make([]byte, pages*PageSize)
		img.Read(0, got)
		return bytes.Equal(got, shadowPersisted)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Load64/Store64 round-trip through the little-endian layout used
// by the rest of the system.
func TestPropertyStore64RoundTrip(t *testing.T) {
	t.Parallel()
	d := New(PageSize, ProfileZero)
	f := func(v uint64, slot uint8) bool {
		off := int64(slot%64) * 8
		d.Store64(off, v)
		raw := make([]byte, 8)
		d.Read(off, raw)
		return d.Load64(off) == v && binary.LittleEndian.Uint64(raw) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinesSpanned(t *testing.T) {
	t.Parallel()
	cases := []struct {
		off  int64
		n    int
		want int64
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 64, 1}, {0, 65, 2},
		{63, 1, 1}, {63, 2, 2}, {64, 64, 1}, {10, 128, 3},
	}
	for _, c := range cases {
		if got := linesSpanned(c.off, c.n); got != c.want {
			t.Errorf("linesSpanned(%d,%d) = %d, want %d", c.off, c.n, got, c.want)
		}
	}
}

func TestCrashKeepDirtyEqualsVolatileView(t *testing.T) {
	t.Parallel()
	// With every dirty line persisted, the crash image must equal the
	// volatile view byte for byte.
	d := newDev(t, 2)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		off := rng.Int63n(2*PageSize - 16)
		b := make([]byte, rng.Intn(16)+1)
		rng.Read(b)
		if i%3 == 0 {
			d.WriteNT(off, b)
		} else {
			d.Write(off, b)
		}
	}
	want := make([]byte, 2*PageSize)
	d.Read(0, want)
	img := d.CrashImage(CrashKeepDirty, 0)
	got := make([]byte, 2*PageSize)
	img.Read(0, got)
	if !bytes.Equal(got, want) {
		t.Fatal("CrashKeepDirty image differs from the volatile view")
	}
}

func TestEvictionImageBetweenDropAndKeep(t *testing.T) {
	t.Parallel()
	// Property: for any byte, the eviction image agrees with either the
	// drop-dirty image or the keep-dirty image.
	d := newDev(t, 2)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		off := rng.Int63n(2*PageSize - 8)
		b := []byte{byte(i), byte(i + 1)}
		d.Write(off, b)
		if rng.Intn(4) == 0 {
			d.Persist(off, len(b))
		}
	}
	read := func(dev *Device) []byte {
		out := make([]byte, 2*PageSize)
		dev.Read(0, out)
		return out
	}
	// Clone before materializing: CrashImage consumes nothing, but the
	// three images must come from identical dirty state.
	drop := read(d.Clone().CrashImage(CrashDropDirty, 0))
	keep := read(d.Clone().CrashImage(CrashKeepDirty, 0))
	evict := read(d.Clone().CrashImage(CrashEvictRandom, 77))
	for i := range evict {
		if evict[i] != drop[i] && evict[i] != keep[i] {
			t.Fatalf("byte %d: eviction image (%d) outside the drop(%d)/keep(%d) lattice", i, evict[i], drop[i], keep[i])
		}
	}
}

func TestBandwidthSharingScalesLatency(t *testing.T) {
	prof := LatencyProfile{Name: "bw", WritePerLine: 50 * time.Microsecond, BandwidthSharing: true}
	d := New(4*PageSize, prof)
	payload := make([]byte, CacheLineSize)
	solo := func() time.Duration {
		start := time.Now()
		d.WriteNT(0, payload)
		return time.Since(start)
	}()
	// Two concurrent writers must each see roughly doubled latency.
	var wg sync.WaitGroup
	durs := make([]time.Duration, 2)
	for i := range durs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			d.WriteNT(int64(i+1)*PageSize, payload)
			durs[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	for i, dur := range durs {
		if dur < solo*12/10 {
			t.Logf("writer %d: %v vs solo %v (contention window may have been missed)", i, dur, solo)
		}
	}
	// At least the counters must reflect all three writes.
	if s := d.Stats(); s.NTLines != 3 {
		t.Fatalf("NTLines = %d", s.NTLines)
	}
}

func TestPersistOpsMonotone(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	before := d.PersistOps()
	d.WriteNT(0, make([]byte, 3*CacheLineSize))
	d.Write(256, []byte{1})
	d.Persist(256, 1)
	after := d.PersistOps()
	if after-before != 4 { // 3 NT lines + 1 flushed line
		t.Fatalf("persist ops delta = %d, want 4", after-before)
	}
}

// TestLoadLines covers the line-snapshot primitive: an unaligned offset
// names the line that holds it, n lines come back in order, and the call is
// counted and charged like one Read of n lines.
func TestLoadLines(t *testing.T) {
	t.Parallel()
	d := New(PageSize, LatencyProfile{ReadAccessOverhead: 1000, ReadPerLine: 10})
	for l := int64(0); l < 4; l++ {
		d.Store64(l*CacheLineSize+8, uint64(100+l))
	}
	d.ResetStats()

	var one [CacheLineSize]byte
	d.LoadLine(CacheLineSize+13, &one) // inside line 1
	if got := binary.LittleEndian.Uint64(one[8:]); got != 101 {
		t.Fatalf("LoadLine(unaligned) read word %d, want line 1's 101", got)
	}
	buf := make([]byte, 3*CacheLineSize)
	d.LoadLines(CacheLineSize+63, 3, buf) // lines 1..3
	for i := 0; i < 3; i++ {
		if got := binary.LittleEndian.Uint64(buf[i*CacheLineSize+8:]); got != uint64(101+i) {
			t.Fatalf("LoadLines line %d = %d, want %d", i, got, 101+i)
		}
	}
	s := d.Stats()
	if s.ReadLines != 4 || s.ReadBytes != 4*CacheLineSize {
		t.Errorf("ReadLines=%d ReadBytes=%d, want 4 lines / %d bytes", s.ReadLines, s.ReadBytes, 4*CacheLineSize)
	}
	// Two accesses, four line transfers — not four accesses.
	if want := int64(2*1000 + 4*10); s.SimLatencyNs != want {
		t.Errorf("SimLatencyNs = %d, want %d", s.SimLatencyNs, want)
	}
}

func TestLoadLinesPanics(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	buf := make([]byte, 2*CacheLineSize)
	dead := newDev(t, 1)
	dead.Store64(0, 1)
	dead.SetCrashAfter(1)
	if !RunToCrash(func() { dead.Persist(0, 8) }) {
		t.Fatal("setup: crash did not fire")
	}
	for name, fn := range map[string]func(){
		"past the end":   func() { d.LoadLines(PageSize-CacheLineSize, 2, buf) },
		"negative":       func() { d.LoadLine(-1, (*[CacheLineSize]byte)(buf)) },
		"short dst":      func() { d.LoadLines(0, 2, buf[:CacheLineSize]) },
		"crashed device": func() { dead.LoadLine(0, (*[CacheLineSize]byte)(buf)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestLoadLineAtomicAgainstWordStores runs snapshots against CAS64, Store64
// and Add64 on the same line: under -race any unsynchronised copy is
// reported, and every snapshot must hold a whole value of each word.
func TestLoadLineAtomicAgainstWordStores(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // word 0: CAS between two patterns
		defer wg.Done()
		a, b := uint64(0), ^uint64(0)
		for i := 0; i < iters; i++ {
			if !d.CAS64(0, a, b) {
				t.Error("CAS64 lost its own word")
				return
			}
			a, b = b, a
		}
	}()
	go func() { // word 1: stores of two patterns
		defer wg.Done()
		for i := 0; i < iters; i++ {
			d.Store64(8, uint64(i%2)*^uint64(0))
		}
	}()
	go func() { // word 2: a counter
		defer wg.Done()
		for i := 0; i < iters; i++ {
			d.Add64(16, 1)
		}
	}()
	var line [CacheLineSize]byte
	var last uint64
	for i := 0; i < iters; i++ {
		d.LoadLine(0, &line)
		for _, w := range []uint64{binary.LittleEndian.Uint64(line[0:]), binary.LittleEndian.Uint64(line[8:])} {
			if w != 0 && w != ^uint64(0) {
				t.Fatalf("torn word %#x", w)
			}
		}
		if c := binary.LittleEndian.Uint64(line[16:]); c < last {
			t.Fatalf("counter went back: %d after %d", c, last)
		} else {
			last = c
		}
	}
	wg.Wait()
}

// TestCrashEvictRandomDependsOnlyOnSeed takes eviction images from clones of
// one dirty state. Every shard holds many dirty lines, so an image that
// followed map iteration order would differ from one taking to the next.
func TestCrashEvictRandomDependsOnlyOnSeed(t *testing.T) {
	t.Parallel()
	d := newDev(t, 16) // 1,024 dirty lines, 16 per shard
	for l := int64(0); l < d.Size()/CacheLineSize; l++ {
		d.Write(l*CacheLineSize, []byte{byte(l) | 1})
	}
	image := func(seed int64) []byte {
		out := make([]byte, d.Size())
		d.Clone().CrashImage(CrashEvictRandom, seed).Read(0, out)
		return out
	}
	want := image(42)
	for i := 0; i < 4; i++ {
		if !bytes.Equal(image(42), want) {
			t.Fatal("two images with seed 42 differ")
		}
	}
	if bytes.Equal(image(43), want) {
		t.Fatal("seeds 42 and 43 produced the same image")
	}
}

// TestDeviceNeverFasterThanModel pins the contract of a charged call on
// ProfileOptane: its SimLatencyNs is the profile arithmetic exactly, and N
// calls take at least N times that in wall time — the host work a call
// overlaps with its modelled wait never makes the device faster than the
// machine it models.
func TestDeviceNeverFasterThanModel(t *testing.T) {
	t.Parallel()
	const pages, calls = 64, 2000
	d := New(pages*PageSize, ProfileOptane)
	page := make([]byte, PageSize)
	lines := make([]byte, 32*CacheLineSize)
	var line [CacheLineSize]byte
	at := func(i int) int64 { return int64(i%pages) * PageSize }
	for _, k := range []struct {
		name  string
		simNs int64 // per call
		call  func(i int)
	}{
		{"Read 4KB", 250 + 64*40, func(i int) { d.Read(at(i), page) }},
		{"LoadLines 1", 250 + 40, func(i int) { d.LoadLine(at(i), &line) }},
		{"LoadLines 32", 250 + 32*40, func(i int) { d.LoadLines(at(i), 32, lines) }},
		{"WriteNT 4KB", 64 * 35, func(i int) { d.WriteNT(at(i), page) }},
		{"Flush 1 line", 20 + 35, func(i int) { d.Flush(at(i), CacheLineSize) }},
		{"Fence", 15, func(int) { d.Fence() }},
		{"PersistStore64", 20 + 35 + 15, func(i int) { d.PersistStore64(at(i), uint64(i)) }},
		{"Load64", 250 + 40, func(i int) { d.Load64(at(i)) }},
	} {
		before := d.Stats().SimLatencyNs
		start := time.Now()
		for i := 0; i < calls; i++ {
			k.call(i)
		}
		wall := time.Since(start)
		sim := d.Stats().SimLatencyNs - before
		if sim != calls*k.simNs {
			t.Errorf("%s: SimLatencyNs %d per call, want %d", k.name, sim/calls, k.simNs)
		}
		if wall.Nanoseconds() < sim {
			t.Errorf("%s: %d calls took %v, faster than the modelled %v", k.name, calls, wall, time.Duration(sim))
		}
	}
}

// TestFirstStoreToCleanLineAllocatesNothing: a dirty line's pre-image lives
// in its shard's map by value, so dirtying and persisting lines on a warmed
// device allocates nothing.
func TestFirstStoreToCleanLineAllocatesNothing(t *testing.T) {
	d := newDev(t, 4)
	i := 0
	cycle := func() {
		off := int64(i%(4*PageSize/8)) * 8
		i++
		d.Store64(off, uint64(i))
		d.Persist(off, 8)
	}
	for j := 0; j < 4*PageSize/8; j++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("Store64 + Persist allocated %v times per cycle, want 0", n)
	}
}
