package dedup

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"denova/internal/fact"
	"denova/internal/nova"
	"denova/internal/obs"
	"denova/internal/pmem"
)

// fsckAfterRecovery finishes deduplication on a recovered rig and then runs
// the full NOVA fsck with the FACT answering block-ownership queries — the
// cross-layer consistency check: every block is either file-mapped, FACT-held
// (RFC or in-flight UC), or free, with no overlap and no leak.
func fsckAfterRecovery(t *testing.T, r *rig, tag string) {
	t.Helper()
	if err := r.table.CheckInvariants(); err != nil {
		t.Fatalf("%s: FACT invariants: %v", tag, err)
	}
	r.engine.Drain()
	if err := r.fs.Fsck(func(b uint64) bool {
		idx, ok := r.table.DeletePtr(b)
		return ok && (r.table.RFC(idx) > 0 || r.table.UC(idx) > 0)
	}); err != nil {
		t.Fatalf("%s: fsck after recovery+drain: %v", tag, err)
	}
}

// TestCrashSweepModesFsckAfterDedup extends the §V-C sweep to the other two
// points of the cache-survival lattice. CrashDropDirty (the systematic sweep
// in dedup_test.go) keeps only what was explicitly flushed; here every crash
// point is also replayed under CrashKeepDirty (every unflushed store
// survives eviction) and CrashEvictRandom (each line survives with p=1/2),
// and after recovery the whole device must pass nova.Fsck with the
// FACT-aware block-ownership callback.
func TestCrashSweepModesFsckAfterDedup(t *testing.T) {
	t.Parallel()
	base := buildCrashBase(t)
	probe := base.Clone()
	rp, _ := attachRig(t, probe)
	start := probe.PersistOps()
	rp.engine.Drain()
	total := probe.PersistOps() - start
	if total < 10 {
		t.Fatalf("suspiciously few persist points: %d", total)
	}

	crashAt := func(k int64) *pmem.Device {
		work := base.Clone()
		rw, _ := attachRig(t, work)
		work.SetCrashAfter(k)
		if !pmem.RunToCrash(func() { rw.engine.Drain() }) {
			t.Fatalf("k=%d: expected crash (total=%d)", k, total)
		}
		return work
	}

	t.Run("KeepDirty", func(t *testing.T) {
		// Deterministic, so sweep every persist point: the image where all
		// cached stores survived must recover as cleanly as the flushed-only
		// one.
		for k := int64(1); k <= total; k++ {
			img := crashAt(k).CrashImage(pmem.CrashKeepDirty, 0)
			rec, _ := attachRig(t, img)
			verifyPostRecovery(t, rec, k)
			fsckAfterRecovery(t, rec, fmt.Sprintf("keep-dirty k=%d", k))
		}
	})

	t.Run("EvictRandom", func(t *testing.T) {
		// Randomized survival: sample the sweep and try several seeds per
		// point to keep the runtime bounded.
		step := total/17 + 1
		for k := int64(1); k <= total; k += step {
			for seed := int64(0); seed < 3; seed++ {
				img := crashAt(k).CrashImage(pmem.CrashEvictRandom, seed*7919+k)
				rec, _ := attachRig(t, img)
				verifyPostRecovery(t, rec, k)
				fsckAfterRecovery(t, rec, fmt.Sprintf("evict-random k=%d seed=%d", k, seed))
			}
		}
	})
}

// TestCrashSweepReclaimKeepDirty replays the page-reclamation crash sweep
// (overwrite of a shared deduplicated block) under CrashKeepDirty and checks
// the shared block's other reference plus a full fsck.
func TestCrashSweepReclaimKeepDirty(t *testing.T) {
	t.Parallel()
	build := func() *pmem.Device {
		r := newRig(t)
		r.write(t, "a", pages(1, 2))
		r.write(t, "b", pages(1, 2))
		r.engine.Drain()
		return r.dev
	}
	op := func(r *rig) {
		in, err := r.fs.Lookup("a")
		if err != nil {
			t.Fatal(err)
		}
		r.fs.Write(in, 0, pages(8, 9), nova.FlagNeeded, obs.SpanContext{})
		r.engine.Drain()
	}
	probe := build()
	rp, _ := attachRig(t, probe)
	start := probe.PersistOps()
	op(rp)
	total := probe.PersistOps() - start

	for k := int64(1); k <= total; k++ {
		work := build()
		rw, _ := attachRig(t, work)
		work.SetCrashAfter(k)
		if !pmem.RunToCrash(func() { op(rw) }) {
			t.Fatalf("k=%d: expected crash (total=%d)", k, total)
		}
		img := work.CrashImage(pmem.CrashKeepDirty, 0)
		rec, _ := attachRig(t, img)
		wantB := pages(1, 2)
		if got := rec.read(t, "b", len(wantB)); string(got) != string(wantB) {
			t.Fatalf("k=%d: shared data lost under keep-dirty", k)
		}
		fsckAfterRecovery(t, rec, fmt.Sprintf("reclaim keep-dirty k=%d", k))
	}
}

// buildParallelCrashBase writes a batch of heavily duplicated files across
// several inodes without draining the queue, so a recovered rig re-finds a
// substantial dedup backlog (via the flag scan) for a worker pool to chew
// through. Returns the device and the expected content of every file.
func buildParallelCrashBase(t *testing.T) (*pmem.Device, map[string][]byte) {
	t.Helper()
	dev := pmem.New(testDevSize, pmem.ProfileZero)
	fs, err := nova.Mkfs(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	table := fact.New(dev, fact.Config{
		Base:       fs.Geo.FactOff,
		PrefixBits: fs.Geo.FactPrefixBits,
		DataStart:  fs.Geo.DataStartBlock,
		NumData:    fs.Geo.NumDataBlocks,
	})
	table.ZeroFill()
	NewEngine(fs, table)
	content := make(map[string][]byte)
	rng := rand.New(rand.NewSource(4242))
	for f := 0; f < 6; f++ {
		seeds := make([]byte, 6)
		for i := range seeds {
			seeds[i] = byte(1 + rng.Intn(4)) // 4 distinct pages => heavy duplication
		}
		name := fmt.Sprintf("p%d", f)
		data := pages(seeds...)
		in, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Write(in, 0, data, nova.FlagNeeded, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
		content[name] = data
	}
	return dev, content
}

// TestCrashSweepParallelDrain injects crashes at randomized persist points
// while a 4-worker pool drains the backlog, then recovers under both
// CrashKeepDirty and CrashEvictRandom and checks that recovery plus
// re-dedup converges: content intact, FACT invariants hold, no UC leaks,
// refcounts consistent with a from-scratch recount, and a clean fsck.
// Every run logs its seed and crash point, so a failure reproduces by
// pinning them.
func TestCrashSweepParallelDrain(t *testing.T) {
	t.Parallel()
	base, content := buildParallelCrashBase(t)

	// Bound the random crash points with one full parallel drain. The
	// persist-op total varies across interleavings, so a k past this run's
	// total just means the crash never fires and the sweep exercises a
	// clean parallel drain instead — still a valid sample.
	probe := base.Clone()
	rp, _ := attachRig(t, probe)
	start := probe.PersistOps()
	dp := NewDaemon(rp.engine, DaemonConfig{Interval: 0, Workers: 4})
	dp.Start()
	dp.DrainSync()
	dp.Stop()
	total := probe.PersistOps() - start
	if total < 20 {
		t.Fatalf("suspiciously few persist points in parallel drain: %d", total)
	}

	sweeps := 14
	if raceEnabled {
		sweeps = 5
	}
	modes := []struct {
		name string
		mode pmem.CrashMode
	}{
		{"keep-dirty", pmem.CrashKeepDirty},
		{"evict-random", pmem.CrashEvictRandom},
	}
	for s := 0; s < sweeps; s++ {
		seed := int64(90001 + s)
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Int63n(total)
		m := modes[s%len(modes)]
		t.Logf("sweep %d: seed=%d k=%d mode=%s", s, seed, k, m.name)

		work := base.Clone()
		rw, _ := attachRig(t, work)
		work.SetCrashAfter(k)
		d := NewDaemon(rw.engine, DaemonConfig{Interval: 0, Workers: 4})
		d.Start()
		// The caller joins the drain: if a worker hits the crash first, the
		// dead device panics the caller too at its next access; if k is
		// past this interleaving's total, the drain completes cleanly.
		crashed := pmem.RunToCrash(func() { d.DrainSync() })
		d.Stop()
		if !crashed && work.Crashed() {
			crashed = true // workers hit the crash; caller saw an empty queue
		}

		img := work.CrashImage(m.mode, seed)
		rec, _ := attachRig(t, img)
		tag := fmt.Sprintf("parallel seed=%d k=%d mode=%s crashed=%v", seed, k, m.name, crashed)
		verifyParallelRecovery(t, rec, content, tag)
	}
}

// verifyParallelRecovery checks a recovered image: content, invariants,
// convergence of post-recovery re-dedup, and refcount consistency.
func verifyParallelRecovery(t *testing.T, r *rig, content map[string][]byte, tag string) {
	t.Helper()
	if err := r.table.CheckInvariants(); err != nil {
		t.Fatalf("%s: FACT invariants: %v", tag, err)
	}
	// Recovery zeroes every UC (count-based consistency: an in-flight
	// transaction either committed its RFC transfer or its UC vanishes).
	for i := int64(0); i < r.table.TotalEntries(); i++ {
		if uc := r.table.UC(uint64(i)); uc != 0 {
			t.Fatalf("%s: UC=%d leaked on entry %d after recovery", tag, uc, i)
		}
	}
	for name, want := range content {
		if got := r.read(t, name, len(want)); !bytes.Equal(got, want) {
			t.Fatalf("%s: file %s corrupted after recovery", tag, name)
		}
	}
	// Re-dedup must converge (the recovered queue holds the re-found
	// backlog) and content must survive it.
	r.engine.Drain()
	for name, want := range content {
		if got := r.read(t, name, len(want)); !bytes.Equal(got, want) {
			t.Fatalf("%s: file %s corrupted by post-recovery dedup", tag, name)
		}
	}
	if err := r.table.CheckInvariants(); err != nil {
		t.Fatalf("%s: FACT invariants after drain: %v", tag, err)
	}
	// Refcount recount: every mapped block needs a FACT entry with
	// RFC >= its mapping count (crashes may leave lazy over-increments,
	// which only the scrubber repairs once the block is fully unused —
	// under-counts would be a consistency bug). After a scrub pass, any
	// surviving entry must reference an in-use block.
	refs := make(map[uint64]int)
	r.fs.WalkFiles(func(in *nova.Inode) {
		in.Lock()
		in.WalkMappingsLocked(func(pg, block, entryOff uint64) bool {
			refs[block]++
			return true
		})
		in.Unlock()
	})
	for block, want := range refs {
		idx, ok := r.table.DeletePtr(block)
		if !ok {
			t.Fatalf("%s: mapped block %d has no FACT entry after drain", tag, block)
		}
		if got := int(r.table.RFC(idx)); got < want {
			t.Fatalf("%s: block %d RFC=%d below from-scratch recount %d", tag, block, got, want)
		}
	}
	r.engine.ScrubNow()
	for block, want := range refs {
		idx, ok := r.table.DeletePtr(block)
		if !ok {
			t.Fatalf("%s: mapped block %d lost its FACT entry to the scrubber", tag, block)
		}
		if got := int(r.table.RFC(idx)); got < want {
			t.Fatalf("%s: block %d RFC=%d below recount %d after scrub", tag, block, got, want)
		}
	}
	fsckAfterRecovery(t, r, tag)
}

// TestCrashSweepReclaimBatch crashes a batched release at every persist
// point, under every cache-survival mode. File x holds, in one extent, a
// shared block (file keep references it too), a unique deduplicated block
// and two never-deduplicated blocks; it is overwritten, truncated and
// deleted. After Mount and recovery the FACT invariants hold, keep is
// intact, x is old or new, and after a drain and a scrub every surviving
// reference count covers a from-scratch recount against the radix trees and
// the whole device passes fsck. Failures name the crash point, mode and
// eviction seed.
func TestCrashSweepReclaimBatch(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "keep", pages(1, 2))
	x := r.write(t, "x", pages(1, 5))
	r.engine.Drain() // x page 0 now shares keep's block; page 1 is unique in the FACT
	if _, err := r.fs.Write(x, 2*nova.PageSize, pages(6, 7), nova.FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	base := r.dev
	oldX, newX := pages(1, 5, 6, 7), pages(20, 21, 22, 23)

	for _, op := range []struct {
		name string
		run  func(r *rig) error
		// ok reports whether x, as read back after recovery (nil: gone), is
		// one of the states the operation may leave.
		ok func(x []byte) bool
	}{
		{"overwrite", func(r *rig) error {
			in, err := r.fs.Lookup("x")
			if err != nil {
				return err
			}
			_, err = r.fs.Write(in, 0, newX, nova.FlagNone, obs.SpanContext{})
			return err
		}, func(x []byte) bool { return bytes.Equal(x, oldX) || bytes.Equal(x, newX) }},
		{"truncate", func(r *rig) error {
			in, err := r.fs.Lookup("x")
			if err != nil {
				return err
			}
			return r.fs.Truncate(in, 0, nova.FlagNone, obs.SpanContext{})
		}, func(x []byte) bool { return bytes.Equal(x, oldX) || (x != nil && len(x) == 0) }},
		{"delete", func(r *rig) error { return r.fs.Delete("x") },
			func(x []byte) bool { return x == nil || bytes.Equal(x, oldX) }},
	} {
		probe := base.Clone()
		rp, _ := attachRig(t, probe)
		start := probe.PersistOps()
		if err := op.run(rp); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		total := probe.PersistOps() - start
		if total < 4 {
			t.Fatalf("%s: suspiciously few persist points: %d", op.name, total)
		}
		for k := int64(1); k <= total; k++ {
			// All but the last few points of the overwrite are the line-by-
			// line stores of its new pages, before anything is committed:
			// sample those, sweep the rest.
			if total-k > 16 && k%37 != 1 {
				continue
			}
			images := []struct {
				mode pmem.CrashMode
				seed int64
			}{{pmem.CrashDropDirty, 0}, {pmem.CrashEvictRandom, 15485863*k + 1}, {pmem.CrashKeepDirty, 0}, {pmem.CrashEvictRandom, 15485863*k + 2}}
			if raceEnabled {
				images = images[:2] // each image is a 32 MB clone, mount and recovery
			}
			for _, m := range images {
				tag := fmt.Sprintf("%s k=%d/%d mode=%d seed=%d", op.name, k, total, m.mode, m.seed)
				work := base.Clone()
				rw, _ := attachRig(t, work)
				work.SetCrashAfter(k)
				if !pmem.RunToCrash(func() { op.run(rw) }) {
					t.Fatalf("%s: expected crash", tag)
				}
				rec, _ := attachRig(t, work.CrashImage(m.mode, m.seed))
				verifyReclaimRecovery(t, rec, tag, op.ok)
			}
		}
	}
}

// verifyReclaimRecovery checks one recovered image of the reclaim sweep.
func verifyReclaimRecovery(t *testing.T, r *rig, tag string, xOK func([]byte) bool) {
	t.Helper()
	if err := r.table.CheckInvariants(); err != nil {
		t.Fatalf("%s: FACT invariants: %v", tag, err)
	}
	if want := pages(1, 2); !bytes.Equal(r.read(t, "keep", len(want)), want) {
		t.Fatalf("%s: shared data lost: keep corrupted", tag)
	}
	var x []byte
	if in, err := r.fs.Lookup("x"); err == nil {
		x = r.read(t, "x", int(in.Size()))
		if x == nil {
			x = []byte{}
		}
	}
	if !xOK(x) {
		t.Fatalf("%s: x (%d bytes) is neither the old nor the new state", tag, len(x))
	}
	r.engine.Drain()
	r.engine.ScrubNow()
	refs := make(map[uint64]int)
	r.fs.WalkFiles(func(in *nova.Inode) {
		in.Lock()
		in.WalkMappingsLocked(func(pg, block, entryOff uint64) bool {
			refs[block]++
			return true
		})
		in.Unlock()
	})
	// A crash may leave a decrement undone (an over-count only the scrubber
	// repairs, once the block is unused), never an under-count; and after
	// the scrub no entry holds a block nothing maps.
	for i := int64(0); i < r.table.TotalEntries(); i++ {
		e := r.table.EntryAt(uint64(i))
		if e.RFC == 0 && e.UC == 0 {
			continue
		}
		if e.UC != 0 || refs[e.Block] == 0 || int(e.RFC) < refs[e.Block] {
			t.Fatalf("%s: entry %d block %d RFC=%d UC=%d, radix recount %d", tag, i, e.Block, e.RFC, e.UC, refs[e.Block])
		}
	}
	fsckAfterRecovery(t, r, tag)
}

// TestCrashSweepDeferredReclaim is the reclaim sweep with the release
// deferred, as while a daemon runs: the overwrite, truncate or delete of x
// queues its shadowed extent — a shared, a unique deduplicated and two
// never-deduplicated blocks — and a drain then releases it. The crash lands
// at every persist point of both, under every cache-survival mode. A crash
// before the drain is done loses the queued decrements, which must read as
// RFC over-counts the scrub repairs: after Mount, invariants, keep intact,
// x old or new, and after a drain and a scrub the recount against the
// radix trees and fsck hold as in the synchronous sweep.
func TestCrashSweepDeferredReclaim(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "keep", pages(1, 2))
	x := r.write(t, "x", pages(1, 5))
	r.engine.Drain()
	if _, err := r.fs.Write(x, 2*nova.PageSize, pages(6, 7), nova.FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	base := r.dev
	oldX, newX := pages(1, 5, 6, 7), pages(20, 21, 22, 23)
	lookupX := func(r *rig) *nova.Inode {
		in, err := r.fs.Lookup("x")
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	for _, op := range []struct {
		name string
		run  func(r *rig) error
		ok   func(x []byte) bool
	}{
		{"overwrite", func(r *rig) error {
			_, err := r.fs.Write(lookupX(r), 0, newX, nova.FlagNone, obs.SpanContext{})
			return err
		},
			func(x []byte) bool { return bytes.Equal(x, oldX) || bytes.Equal(x, newX) }},
		{"truncate", func(r *rig) error { return r.fs.Truncate(lookupX(r), 0, nova.FlagNone, obs.SpanContext{}) },
			func(x []byte) bool { return bytes.Equal(x, oldX) || (x != nil && len(x) == 0) }},
		{"delete", func(r *rig) error { return r.fs.Delete("x") },
			func(x []byte) bool { return x == nil || bytes.Equal(x, oldX) }},
	} {
		deferred := func(r *rig) {
			r.fs.DeferReclaim(func() {})
			if err := op.run(r); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			if n := r.fs.ReclaimQueued(); n != 4 {
				t.Fatalf("%s: %d blocks queued, want the extent's 4", op.name, n)
			}
			r.fs.DrainReclaim()
		}
		probe := base.Clone()
		rp, _ := attachRig(t, probe)
		start := probe.PersistOps()
		deferred(rp)
		total := probe.PersistOps() - start
		images := []struct {
			mode pmem.CrashMode
			seed int64
		}{{pmem.CrashDropDirty, 0}, {pmem.CrashKeepDirty, 0}, {pmem.CrashEvictRandom, 1}}
		if raceEnabled {
			images = images[:2]
		}
		for k := int64(1); k <= total; k++ {
			if total-k > 16 && k%37 != 1 { // sample the overwrite's page stores
				continue
			}
			for _, m := range images {
				tag := fmt.Sprintf("deferred %s k=%d/%d mode=%d", op.name, k, total, m.mode)
				work := base.Clone()
				rw, _ := attachRig(t, work)
				work.SetCrashAfter(k)
				if !pmem.RunToCrash(func() { deferred(rw) }) {
					t.Fatalf("%s: expected crash", tag)
				}
				rec, _ := attachRig(t, work.CrashImage(m.mode, 15485863*k+m.seed))
				verifyReclaimRecovery(t, rec, tag, op.ok)
			}
		}
	}
}
