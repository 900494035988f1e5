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
func fsckAfterRecovery(r *rig) error {
	if err := r.table.CheckInvariants(); err != nil {
		return fmt.Errorf("FACT invariants: %v", err)
	}
	r.engine.Drain()
	if err := r.fs.Fsck(func(b uint64) bool {
		idx, ok := r.table.DeletePtr(b)
		return ok && (r.table.RFC(idx) > 0 || r.table.UC(idx) > 0)
	}); err != nil {
		return fmt.Errorf("fsck after recovery+drain: %v", err)
	}
	return nil
}

// TestCrashSweepModesFsckAfterDedup extends the §V-C dedup sweep to the
// other two points of the cache-survival lattice: CrashKeepDirty (every
// unflushed store survives) and CrashEvictRandom (each line survives with
// p=1/2). After recovery the whole device must pass nova.Fsck with the
// FACT-aware block-ownership callback; the keep-dirty images also get the
// §V-C checks, which TestCrashSweepDuringDedupWithEviction runs on the
// evict-random ones.
func TestCrashSweepModesFsckAfterDedup(t *testing.T) {
	t.Parallel()
	t.Run("KeepDirty", func(t *testing.T) {
		t.Parallel()
		sweepDedupTxn(t, func(r *rig, k int64) error {
			if err := dedupTxnChecks(r, k); err != nil {
				return err
			}
			return fsckAfterRecovery(r)
		}, pmem.SweepMode{Mode: pmem.CrashKeepDirty})
	})
	t.Run("EvictRandom", func(t *testing.T) {
		t.Parallel()
		sweepDedupTxn(t, func(r *rig, _ int64) error { return fsckAfterRecovery(r) }, evictSampled)
	})
}

// TestCrashSweepReclaimKeepDirty replays the page-reclamation crash sweep
// (overwrite of a shared deduplicated block) under CrashKeepDirty, with the
// same checks as TestCrashSweepDuringReclaim.
func TestCrashSweepReclaimKeepDirty(t *testing.T) {
	t.Parallel()
	sweepReclaim(t, pmem.SweepMode{Mode: pmem.CrashKeepDirty})
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
	if err := fsckAfterRecovery(r); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
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
	modes := sampled(pmem.CrashDropDirty, pmem.CrashKeepDirty, pmem.CrashEvictRandom, pmem.CrashEvictRandom)
	if raceEnabled { // each image is a 32 MB clone, mount and recovery
		modes = sampled(pmem.CrashDropDirty, pmem.CrashEvictRandom)
	}
	for _, op := range reclaimOps(t) {
		t.Run(op.name, func(t *testing.T) {
			sweep(t, op.base, op.run, func(r *rig, _ int64) error { return verifyReclaimRecovery(r, op.ok) }, modes...)
		})
	}
}

// reclaimOp is one way x's extent is released: run does it on a recovered
// clone of base, and ok reports whether x, as read back after recovery
// (nil: gone), is one of the states the operation may leave.
type reclaimOp struct {
	name string
	base *pmem.Device
	run  func(r *rig) error
	ok   func(x []byte) bool
}

// reclaimOps builds x's base image and returns the overwrite, truncate and
// delete of x.
func reclaimOps(t *testing.T) []reclaimOp {
	r := newRig(t)
	r.write(t, "keep", pages(1, 2))
	x := r.write(t, "x", pages(1, 5))
	r.engine.Drain() // x page 0 now shares keep's block; page 1 is unique in the FACT
	if _, err := r.fs.Write(x, 2*nova.PageSize, pages(6, 7), nova.FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	oldX, newX := pages(1, 5, 6, 7), pages(20, 21, 22, 23)
	onX := func(fn func(r *rig, in *nova.Inode) error) func(r *rig) error {
		return func(r *rig) error {
			in, err := r.fs.Lookup("x")
			if err != nil {
				return err
			}
			return fn(r, in)
		}
	}
	return []reclaimOp{
		{"overwrite", r.dev, onX(func(r *rig, in *nova.Inode) error {
			_, err := r.fs.Write(in, 0, newX, nova.FlagNone, obs.SpanContext{})
			return err
		}), func(x []byte) bool { return bytes.Equal(x, oldX) || bytes.Equal(x, newX) }},
		{"truncate", r.dev, onX(func(r *rig, in *nova.Inode) error {
			return r.fs.Truncate(in, 0, nova.FlagNone, obs.SpanContext{})
		}), func(x []byte) bool { return bytes.Equal(x, oldX) || (x != nil && len(x) == 0) }},
		{"delete", r.dev, func(r *rig) error { return r.fs.Delete("x") },
			func(x []byte) bool { return x == nil || bytes.Equal(x, oldX) }},
	}
}

// sampled returns one sweep mode per distinct listed mode (a repeated
// CrashEvictRandom adds a seed) that visits every point of the last 17 but
// only every 37th before them: those are the line-by-line stores of the
// overwrite's new pages, before anything is committed.
func sampled(modes ...pmem.CrashMode) []pmem.SweepMode {
	var out []pmem.SweepMode
	for _, m := range modes {
		if i := len(out) - 1; i >= 0 && out[i].Mode == m {
			out[i].Seeds++
			continue
		}
		out = append(out, pmem.SweepMode{Mode: m, Seeds: 1, Stride: 37, Tail: 17})
	}
	return out
}

// verifyReclaimRecovery checks one recovered image of the reclaim sweep.
func verifyReclaimRecovery(r *rig, xOK func([]byte) bool) error {
	if err := r.table.CheckInvariants(); err != nil {
		return fmt.Errorf("FACT invariants: %v", err)
	}
	if got, err := r.readFile("keep", 2*ChunkSize); err != nil || !bytes.Equal(got, pages(1, 2)) {
		return fmt.Errorf("shared data lost: keep corrupted (%v)", err)
	}
	var x []byte
	if in, err := r.fs.Lookup("x"); err == nil {
		if x, err = r.readFile("x", int(in.Size())); err != nil {
			return err
		}
	}
	if !xOK(x) {
		return fmt.Errorf("x (%d bytes) is neither the old nor the new state", len(x))
	}
	if err := rfcCoversRefs(r); err != nil {
		return err
	}
	return fsckAfterRecovery(r)
}

// rfcCoversRefs drains and scrubs a recovered rig, then recounts every
// file's mappings against the FACT. A crash may leave a decrement undone
// (an over-count only the scrubber repairs, once the block is unused),
// never an under-count; and after the scrub no entry holds a block nothing
// maps.
func rfcCoversRefs(r *rig) error {
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
	for i := int64(0); i < r.table.TotalEntries(); i++ {
		e := r.table.EntryAt(uint64(i))
		if e.RFC == 0 && e.UC == 0 {
			continue
		}
		if e.UC != 0 || refs[e.Block] == 0 || int(e.RFC) < refs[e.Block] {
			return fmt.Errorf("entry %d block %d RFC=%d UC=%d, radix recount %d", i, e.Block, e.RFC, e.UC, refs[e.Block])
		}
	}
	return nil
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
	modes := sampled(pmem.CrashDropDirty, pmem.CrashKeepDirty, pmem.CrashEvictRandom)
	if raceEnabled {
		modes = modes[:2]
	}
	for _, op := range reclaimOps(t) {
		t.Run(op.name, func(t *testing.T) {
			deferred := func(r *rig) error {
				r.fs.DeferReclaim(func() {})
				if err := op.run(r); err != nil {
					return err
				}
				if n := r.fs.ReclaimQueued(); n != 4 {
					return fmt.Errorf("%d blocks queued, want the extent's 4", n)
				}
				r.fs.DrainReclaim()
				return nil
			}
			sweep(t, op.base, deferred, func(r *rig, _ int64) error { return verifyReclaimRecovery(r, op.ok) }, modes...)
		})
	}
}
