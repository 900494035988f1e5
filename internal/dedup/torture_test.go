package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"denova/internal/nova"
	"denova/internal/obs"
)

// TestTortureParallelDedup is the concurrency torture test for the
// multi-worker dedup pipeline: M writer goroutines overwrite and truncate a
// small set of overlapping files while an N-worker daemon dedups behind
// them, a GC goroutine forces thorough log GC, and the daemon's own scrub
// cadence runs the FACT scrubber (which quiesces the pool) mid-flight.
//
// Writers only ever store whole pages drawn from a fixed content pool, so
// the oracle needs no op-order bookkeeping: at quiescence every file page
// must read back as a pool page, all zeros (hole), or a pool-page prefix
// with a zeroed tail (non-aligned truncate). On top of content we check the
// full cross-layer state: empty queue, FACT invariants, a from-scratch
// refcount recount, nova.Fsck with FACT-aware block ownership, and a clean
// shadow-tracker checkpoint (the device-level proof that no goroutine left
// an unpersisted store behind).
func TestTortureParallelDedup(t *testing.T) {
	t.Parallel()
	const (
		nFiles   = 8
		nWriters = 4
		nWorkers = 4
		maxPages = 16 // per-file page span writers stay inside
		poolSize = 12 // distinct page contents => heavy cross-file duplication
	)
	budget := 6000 // total writer ops
	if raceEnabled {
		budget = 1200
	}

	r := newRig(t)
	r.dev.EnableShadowTracker()

	inodes := make([]*nova.Inode, nFiles)
	for i := range inodes {
		in, err := r.fs.Create(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		inodes[i] = in
	}

	d := NewDaemon(r.engine, DaemonConfig{Interval: 0, Workers: nWorkers, ScrubEvery: 8})
	d.Start()

	// GC goroutine: thorough-GC random files until the writers are done.
	var gcStop int32
	var gcWg sync.WaitGroup
	gcWg.Add(1)
	go func() {
		defer gcWg.Done()
		rng := rand.New(rand.NewSource(777))
		for atomic.LoadInt32(&gcStop) == 0 {
			r.fs.ForceThoroughGC(inodes[rng.Intn(nFiles)])
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1000 + int64(w)))
			for op := 0; op < budget/nWriters; op++ {
				in := inodes[rng.Intn(nFiles)]
				if rng.Intn(100) < 85 {
					pg := rng.Intn(maxPages)
					npages := 1 + rng.Intn(3)
					if pg+npages > maxPages {
						npages = maxPages - pg
					}
					seed := byte(1 + rng.Intn(poolSize))
					data := make([]byte, 0, npages*ChunkSize)
					for p := 0; p < npages; p++ {
						data = append(data, pages(seed)...)
					}
					_, err := r.fs.Write(in, uint64(pg)*nova.PageSize, data, nova.FlagNeeded, obs.SpanContext{})
					if err != nil && !errors.Is(err, nova.ErrNoSpace) {
						t.Errorf("writer %d: write: %v", w, err)
						return
					}
				} else {
					size := uint64(rng.Intn(maxPages*nova.PageSize + 1))
					if err := r.fs.Truncate(in, size, nova.FlagNeeded, obs.SpanContext{}); err != nil {
						t.Errorf("writer %d: truncate: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	atomic.StoreInt32(&gcStop, 1)
	gcWg.Wait()

	d.DrainSync()
	d.Stop()
	if n := r.engine.DWQ().Len(); n != 0 {
		t.Fatalf("queue not empty after DrainSync+Stop: %d nodes", n)
	}
	if s := r.engine.Stats(); s.PagesDuplicate == 0 {
		t.Errorf("no page was ever deduplicated (PagesScanned=%d) — workload broken", s.PagesScanned)
	}
	// The daemon ran, so reclaim was deferred to it and raced the scrubber:
	// the allocator's double-free panic is the oracle for ScrubNow's drain.
	if rs := r.fs.ReclaimStats(); rs.Deferred == 0 || rs.Queued != 0 {
		t.Errorf("reclaim queue %+v: want deferred blocks, none left after DrainSync", rs)
	}

	// Content oracle: every page is a pool page, zeros, or a pool-page
	// prefix with a zeroed tail.
	pool := make([][]byte, poolSize)
	for s := range pool {
		pool[s] = pages(byte(s + 1))
	}
	for i, in := range inodes {
		size := in.Size()
		buf := make([]byte, size)
		n, err := r.fs.Read(in, 0, buf, obs.SpanContext{})
		if err != nil {
			t.Fatalf("file t%d: read: %v", i, err)
		}
		buf = buf[:n]
		for off := 0; off < len(buf); off += ChunkSize {
			end := off + ChunkSize
			if end > len(buf) {
				end = len(buf)
			}
			if !pagePlausible(buf[off:end], pool) {
				t.Fatalf("file t%d page %d: content is not a pool page / zeros / truncated pool page",
					i, off/ChunkSize)
			}
		}
	}

	// From-scratch refcount recount: after a final scrub, every mapped block
	// must carry a FACT entry whose RFC equals the number of file pages that
	// reference it, and no entry may hold a leaked UC.
	r.engine.ScrubNow()
	refs := make(map[uint64]int)
	for _, in := range inodes {
		in.Lock()
		in.WalkMappingsLocked(func(pg, block, entryOff uint64) bool {
			refs[block]++
			return true
		})
		in.Unlock()
	}
	for block, want := range refs {
		idx, ok := r.table.DeletePtr(block)
		if !ok {
			t.Errorf("mapped block %d has no FACT entry after full drain", block)
			continue
		}
		if got := r.table.RFC(idx); int(got) != want {
			t.Errorf("block %d: RFC=%d, from-scratch recount=%d", block, got, want)
		}
	}
	for i := int64(0); i < r.table.TotalEntries(); i++ {
		if uc := r.table.UC(uint64(i)); uc != 0 {
			t.Errorf("entry %d: UC=%d leaked at quiescence", i, uc)
		}
	}
	if err := r.table.CheckInvariants(); err != nil {
		t.Fatalf("FACT invariants: %v", err)
	}
	if err := r.fs.Fsck(func(b uint64) bool {
		idx, ok := r.table.DeletePtr(b)
		return ok && (r.table.RFC(idx) > 0 || r.table.UC(idx) > 0)
	}); err != nil {
		t.Fatalf("fsck after torture: %v", err)
	}

	// Quiesced commit boundary: no goroutine may have left a store
	// unflushed. (Mid-run checkpoints would be meaningless — concurrent
	// transactions are legitimately in flight — but here everything has
	// stopped.)
	if dirty := r.dev.CheckpointClean("torture-end"); dirty != 0 {
		t.Errorf("%d cache lines dirty at quiesced end of torture run", dirty)
	}
}

// pagePlausible reports whether pg (a full or final partial page) matches
// some pool page up to a cut c with zeros after it. c == len covers an
// intact pool page, c == 0 a hole; intermediate cuts are truncate tails.
// Pool pages contain interior zero bytes, so the check walks to the first
// real mismatch per candidate rather than trimming trailing zeros.
func pagePlausible(pg []byte, pool [][]byte) bool {
	if allZero(pg) {
		return true
	}
	for _, p := range pool {
		c := 0
		for c < len(pg) && pg[c] == p[c] {
			c++
		}
		if allZero(pg[c:]) {
			return true
		}
	}
	return false
}

func allZero(b []byte) bool {
	return bytes.Count(b, []byte{0}) == len(b)
}

// TestTortureSharedRelease races the batched release against itself and
// against open transactions on the same entries: files a and b share every
// canonical block (RFC 2 each), a third file with the same content waits in
// the queue, and then two goroutines delete a and b while the daemon dedups
// the third — every entry sees decrements, a last-reference removal or a
// kept-for-the-transaction decision, and maybe a reinsert. Deleting the
// third file must leave an empty FACT and every block free again.
func TestTortureSharedRelease(t *testing.T) {
	t.Parallel()
	rounds, nPages := 12, 24
	if raceEnabled {
		rounds = 4
	}
	seeds := make([]byte, nPages)
	for i := range seeds {
		seeds[i] = byte(i + 1)
	}
	data := pages(seeds...)
	for round := 0; round < rounds; round++ {
		r := newRig(t)
		free0 := r.fs.FreeBlocks()
		r.write(t, "a", data)
		r.write(t, "b", data)
		r.engine.Drain()
		if got := r.table.LiveEntries(); got != int64(nPages) {
			t.Fatalf("round %d: %d FACT entries after dedup of a and b, want %d", round, got, nPages)
		}
		r.write(t, "c", data)

		d := NewDaemon(r.engine, DaemonConfig{Interval: 0, Workers: 2})
		d.Start()
		var wg sync.WaitGroup
		for _, name := range []string{"a", "b"} {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				if err := r.fs.Delete(name); err != nil {
					t.Errorf("round %d: delete %s: %v", round, name, err)
				}
			}(name)
		}
		wg.Wait()
		d.DrainSync()
		d.Stop()
		if rs := r.fs.ReclaimStats(); rs.Deferred == 0 || rs.Queued != 0 {
			t.Fatalf("round %d: reclaim queue %+v: want the deletes deferred and DrainSync to empty it", round, rs)
		}

		if want := data; !bytes.Equal(r.read(t, "c", len(want)), want) {
			t.Fatalf("round %d: c corrupted by the concurrent releases", round)
		}
		if err := r.fs.Delete("c"); err != nil {
			t.Fatal(err)
		}
		if err := r.table.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if live := r.table.LiveEntries(); live != 0 {
			t.Fatalf("round %d: %d FACT entries left after every file was deleted", round, live)
		}
		if free := r.fs.FreeBlocks(); free != free0 {
			t.Fatalf("round %d: free blocks %d, started at %d", round, free, free0)
		}
		if err := r.fs.Fsck(func(uint64) bool { return false }); err != nil {
			t.Fatalf("round %d: fsck: %v", round, err)
		}
	}
}
