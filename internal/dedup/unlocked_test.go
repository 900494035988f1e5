package dedup

import (
	"bytes"
	"testing"
	"time"

	"denova/internal/nova"
	"denova/internal/obs"
)

// The tests in this file drive ProcessEntry's unlocked window — after it has
// hashed a node's pages without the inode lock, before it takes the lock
// again — deterministically: the engine's hashed hook runs the foreground
// operation under test on the test goroutine, with the free-pin held.

// inWindow processes node with during run in its unlocked window, once.
func inWindow(t *testing.T, r *rig, node Node, during func()) bool {
	t.Helper()
	ran := false
	r.engine.hashed = func(n Node) {
		if n == node && !ran {
			ran = true
			during()
		}
	}
	defer func() { r.engine.hashed = nil }()
	ok := r.engine.ProcessEntry(node, new(Scratch))
	if !ran {
		t.Fatal("ProcessEntry never reached its unlocked window")
	}
	return ok
}

// nodeFor dequeues the queued node of the named file's latest write, leaving
// the other nodes queued.
func nodeFor(t *testing.T, r *rig, name string) Node {
	t.Helper()
	in, err := r.fs.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	var found Node
	var rest []Node
	for _, n := range r.engine.DWQ().DequeueBatch(0) {
		if n.Ino == in.Ino() {
			found = n
		} else {
			rest = append(rest, n)
		}
	}
	for _, n := range rest {
		r.engine.DWQ().Enqueue(n)
	}
	if found.EntryOff == 0 {
		t.Fatalf("no queued node for %s", name)
	}
	return found
}

// checkWindowOutcome finishes deduplication and checks what the window must
// never break: every file reads back as want says; every mapped block that
// a live FACT entry owns holds the bytes that entry's fingerprint names, so
// no page was remapped onto a block whose bytes differ; fsck is clean; and
// no free-pin or limbo block outlives the drain.
func checkWindowOutcome(t *testing.T, r *rig, want map[string][]byte) {
	t.Helper()
	NewDaemon(r.engine, DaemonConfig{Interval: time.Hour}).DrainSync()
	for name, data := range want {
		if got := r.read(t, name, len(data)+ChunkSize); !bytes.Equal(got, data) {
			t.Fatalf("%s reads %d bytes that differ from the %d written", name, len(got), len(data))
		}
	}
	buf := make([]byte, ChunkSize)
	for name := range want {
		in, _ := r.fs.Lookup(name)
		in.Lock()
		in.WalkMappingsLocked(func(pg, block, _ uint64) bool {
			if idx, ok := r.table.DeletePtr(block); ok && r.table.RFC(idx) > 0 {
				r.fs.ReadBlock(block, buf)
				if r.table.EntryAt(idx).FP != Strong(buf) {
					t.Errorf("%s page %d maps block %d, whose bytes do not match its FACT fingerprint", name, pg, block)
				}
			}
			return true
		})
		in.Unlock()
	}
	if err := r.table.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Fsck(func(b uint64) bool {
		idx, ok := r.table.DeletePtr(b)
		return ok && (r.table.RFC(idx) > 0 || r.table.UC(idx) > 0)
	}); err != nil {
		t.Fatal(err)
	}
	if pins, limbo := r.fs.FreePins(); pins != 0 || limbo != 0 {
		t.Fatalf("after DrainSync: %d free-pins held, %d blocks in limbo", pins, limbo)
	}
}

// TestUnlockedHashOverwrite: a page overwritten after it was hashed is
// dropped at the relock; its shadowed block waits in limbo meanwhile, and
// the pages left alone are deduplicated.
func TestUnlockedHashOverwrite(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "a", pages(1, 2, 3))
	r.engine.Drain()
	in := r.write(t, "b", pages(1, 2, 3))
	node := nodeFor(t, r, "b")
	inWindow(t, r, node, func() {
		if _, err := r.fs.Write(in, ChunkSize, pages(1), nova.FlagNeeded, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
		if pins, limbo := r.fs.FreePins(); pins != 1 || limbo != 1 {
			t.Fatalf("in the window: %d pins, %d blocks in limbo; want 1 and 1", pins, limbo)
		}
	})
	if st := r.engine.Stats(); st.PagesDuplicate != 2 || st.PagesStale != 1 {
		t.Fatalf("stats after the window: %+v; want 2 duplicates, 1 stale", st)
	}
	checkWindowOutcome(t, r, map[string][]byte{"a": pages(1, 2, 3), "b": pages(1, 1, 3)})
}

// TestUnlockedHashTruncate: a truncate through hashed pages drops the pages
// it removed and the partial page it rewrote.
func TestUnlockedHashTruncate(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "a", pages(1, 2, 3))
	r.engine.Drain()
	in := r.write(t, "b", pages(1, 2, 3))
	node := nodeFor(t, r, "b")
	size := uint64(ChunkSize + 100)
	inWindow(t, r, node, func() {
		if err := r.fs.Truncate(in, size, nova.FlagNeeded, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	})
	if st := r.engine.Stats(); st.PagesDuplicate != 1 || st.PagesStale != 2 {
		t.Fatalf("stats after the window: %+v; want 1 duplicate, 2 stale", st)
	}
	checkWindowOutcome(t, r, map[string][]byte{"a": pages(1, 2, 3), "b": pages(1, 2)[:size]})
}

// TestUnlockedHashDeleteReuse: a file deleted after its pages were hashed
// cannot hand those blocks to a new file while the pin holds them; the
// relock sees the node is gone.
func TestUnlockedHashDeleteReuse(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "a", pages(1, 2))
	r.engine.Drain()
	in := r.write(t, "b", pages(5, 6))
	hashed := map[uint64]bool{}
	for pg := uint64(0); pg < 2; pg++ {
		b, _, _ := in.Mapping(pg)
		hashed[b] = true
	}
	node := nodeFor(t, r, "b")
	if ok := inWindow(t, r, node, func() {
		if err := r.fs.Delete("b"); err != nil {
			t.Fatal(err)
		}
		c := r.write(t, "c", pages(7, 8))
		for pg := uint64(0); pg < 2; pg++ {
			if b, _, _ := c.Mapping(pg); hashed[b] {
				t.Fatalf("a new file took block %d while a free-pin held it", b)
			}
		}
	}); ok {
		t.Fatal("ProcessEntry processed the node of a deleted file")
	}
	checkWindowOutcome(t, r, map[string][]byte{"a": pages(1, 2), "c": pages(7, 8)})
}

// TestUnlockedHashConcurrentDrain: another consumer finishing the same node
// inside the window leaves the first nothing to do at the relock.
func TestUnlockedHashConcurrentDrain(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "a", pages(1, 2))
	r.engine.Drain()
	r.write(t, "b", pages(1, 2))
	node := nodeFor(t, r, "b")
	if ok := inWindow(t, r, node, func() {
		r.engine.DWQ().Enqueue(node)
		if n := r.engine.Drain(); n != 1 {
			t.Fatalf("the concurrent Drain processed %d nodes, want 1", n)
		}
	}); ok {
		t.Fatal("both consumers processed the node")
	}
	if st := r.engine.Stats(); st.PagesDuplicate != 2 {
		t.Fatalf("stats: %+v; want the 2 duplicate pages remapped once", st)
	}
	checkWindowOutcome(t, r, map[string][]byte{"a": pages(1, 2), "b": pages(1, 2)})
}

// TestUnlockedHashReclaimENOSPC: an allocation that needs the blocks in limbo
// gets them while the pin is held. The broken pin's hashes stay good for a
// node whose mappings did not move.
func TestUnlockedHashReclaimENOSPC(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "a", pages(1, 2))
	r.engine.Drain()
	r.write(t, "b", pages(1, 2))
	r.write(t, "x", pages(9, 9, 9))
	in := r.write(t, "y", nil)
	node := nodeFor(t, r, "b")
	var held []uint64
	fill := func() {
		for {
			b, err := r.fs.Allocator().Alloc(0, 1)
			if err != nil {
				return
			}
			held = append(held, b)
		}
	}
	inWindow(t, r, node, func() {
		fill()
		if err := r.fs.Delete("x"); err != nil {
			t.Fatal(err)
		}
		fill() // x's log page; its 3 data blocks go to limbo
		if _, limbo := r.fs.FreePins(); limbo != 3 || r.fs.FreeBlocks() != 0 {
			t.Fatalf("%d blocks in limbo, %d free; want 3 and 0", limbo, r.fs.FreeBlocks())
		}
		if _, err := r.fs.Write(in, 0, pages(4), nova.FlagNeeded, obs.SpanContext{}); err != nil {
			t.Fatalf("write with the only free space in limbo: %v", err)
		}
	})
	if st := r.engine.Stats(); st.PagesDuplicate != 2 {
		t.Fatalf("stats: %+v; want b's 2 pages deduplicated", st)
	}
	for _, b := range held {
		r.fs.Allocator().Free(b, 1)
	}
	checkWindowOutcome(t, r, map[string][]byte{"a": pages(1, 2), "b": pages(1, 2), "y": pages(4)})
	if _, err := r.fs.Lookup("x"); err == nil {
		t.Fatal("x survived its delete")
	}
}
