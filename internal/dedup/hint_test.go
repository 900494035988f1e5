package dedup

import (
	"bytes"
	"testing"

	"denova/internal/nova"
	"denova/internal/obs"
	"denova/internal/pmem"
)

// The tests in this file drive the DRAM hint a relinked entry's DWQ node
// carries (nova.PageImages): what makes ProcessEntry hash a page from its
// stage image, and every change between relink and the worker that must
// send it back to reading the block.

// stage creates name, stages data into it and relinks it: one hinted node.
func (r *rig) stage(t testing.TB, name string, data []byte) *nova.Inode {
	t.Helper()
	in, err := r.fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.StageWrite(in, 0, data, nova.FlagNeeded, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.Relink(in); err != nil {
		t.Fatal(err)
	}
	return in
}

// hintedNode dequeues the named file's node, as nodeFor does, and checks it
// came with one image per page of its entry.
func hintedNode(t *testing.T, r *rig, name string) Node {
	t.Helper()
	node := nodeFor(t, r, name)
	we, err := nova.ReadWriteEntry(r.fs.Dev, node.EntryOff)
	if err != nil {
		t.Fatal(err)
	}
	if h := node.Hint; h.Seq != we.Seq || h.Block != we.Block || len(h.Imgs) != int(we.NumPages) {
		t.Fatalf("relinked node's hint {seq %d, block %d, %d images}; entry has seq %d, block %d, %d pages",
			h.Seq, h.Block, len(h.Imgs), we.Seq, we.Block, we.NumPages)
	}
	return node
}

// TestHintStagedAllHinted: staged pages that nothing overwrites are all
// hashed from their images, and /metrics counts them.
func TestHintStagedAllHinted(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	reg := obs.NewRegistry()
	r.engine.SetObserver(NewObserver(reg, nil, false))
	r.stage(t, "a", pages(1, 2, 3))
	r.stage(t, "b", pages(1, 2, 3, 4))
	r.engine.Drain()
	st := r.engine.Stats()
	if st.PagesScanned != 7 || st.PagesHinted != st.PagesScanned || st.PagesDuplicate != 3 {
		t.Fatalf("stats %+v: want all 7 pages scanned from their images, 3 duplicates", st)
	}
	if got := reg.Snapshot().Counters["dedup.pages_hinted"]; got != 7 {
		t.Fatalf("dedup.pages_hinted = %d, want 7", got)
	}
	checkWindowOutcome(t, r, map[string][]byte{"a": pages(1, 2, 3), "b": pages(1, 2, 3, 4)})
}

// TestHintSlowPathNoneHinted: slow-path writes carry no images; every page
// is read back from PM.
func TestHintSlowPathNoneHinted(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	reg := obs.NewRegistry()
	r.engine.SetObserver(NewObserver(reg, nil, false))
	r.write(t, "a", pages(1, 2, 3))
	r.write(t, "b", pages(1, 2, 3, 4))
	if n := r.engine.DWQ().hinted; n != 0 {
		t.Fatalf("slow-path writes queued %d hinted pages", n)
	}
	r.engine.Drain()
	if st := r.engine.Stats(); st.PagesScanned != 7 || st.PagesHinted != 0 {
		t.Fatalf("stats %+v: want 7 pages scanned, none from an image", st)
	}
	if got := reg.Snapshot().Counters["dedup.pages_hinted"]; got != 0 {
		t.Fatalf("dedup.pages_hinted = %d, want 0", got)
	}
}

// TestHintWrongSeq: a hint whose Seq is not the entry's is never trusted,
// even with the right block and page count — here its images are another
// file's bytes, which would remap b onto a's blocks.
func TestHintWrongSeq(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "a", pages(1, 2))
	r.engine.Drain()
	r.stage(t, "b", pages(3, 4))
	node := hintedNode(t, r, "b")
	node.Hint.Seq++
	node.Hint.Imgs = [][]byte{pages(1), pages(2)}
	if !r.engine.ProcessEntry(node, new(Scratch)) {
		t.Fatal("ProcessEntry skipped a live node")
	}
	if st := r.engine.Stats(); st.PagesHinted != 0 || st.PagesDuplicate != 0 || st.PagesUnique != 4 {
		t.Fatalf("stats %+v: want b's 2 pages read from PM and unique", st)
	}
	checkWindowOutcome(t, r, map[string][]byte{"a": pages(1, 2), "b": pages(3, 4)})
}

// TestHintOverwrite: a page overwritten between relink and the worker is
// no longer the node's; the new write's node hashes it from PM, and the
// node's other pages keep their images.
func TestHintOverwrite(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "a", pages(1, 2, 3))
	r.engine.Drain()
	in := r.stage(t, "b", pages(1, 2, 3))
	node := hintedNode(t, r, "b")
	if _, err := r.fs.Write(in, ChunkSize, pages(9), nova.FlagNeeded, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	r.engine.ProcessEntry(node, new(Scratch))
	if st := r.engine.Stats(); st.PagesHinted != 2 || st.PagesStale != 1 || st.PagesDuplicate != 2 {
		t.Fatalf("stats %+v: want 2 pages hashed from images and deduplicated, 1 stale", st)
	}
	checkWindowOutcome(t, r, map[string][]byte{"a": pages(1, 2, 3), "b": pages(1, 9, 3)})
	if st := r.engine.Stats(); st.PagesHinted != 2 {
		t.Fatalf("the overwrite's page was hashed from an image: %+v", st)
	}
}

// TestHintTruncate: a truncate between relink and the worker drops the cut
// pages from the node and remaps the partial one under a new, unhinted
// entry; the zero-tailed copy is hashed from PM, not from the stale image.
func TestHintTruncate(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "a", pages(1, 2, 3))
	r.engine.Drain()
	in := r.stage(t, "b", pages(1, 2, 3))
	node := hintedNode(t, r, "b")
	size := uint64(ChunkSize + 100)
	if err := r.fs.Truncate(in, size, nova.FlagNeeded, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	r.engine.ProcessEntry(node, new(Scratch))
	if st := r.engine.Stats(); st.PagesHinted != 1 || st.PagesStale != 2 || st.PagesDuplicate != 1 {
		t.Fatalf("stats %+v: want 1 page hashed from its image and deduplicated, 2 stale", st)
	}
	checkWindowOutcome(t, r, map[string][]byte{"a": pages(1, 2, 3), "b": pages(1, 2)[:size]})
	if st := r.engine.Stats(); st.PagesHinted != 1 || st.PagesDuplicate != 1 {
		t.Fatalf("the truncated page was hashed from its stale image: %+v", st)
	}
}

// TestHintDeleteRecreate: a file deleted and re-created between relink and
// the worker. With two inode slots free and one-page writes, the new file
// takes the old one's inode, log page and block, so the stale node names
// the new file's entry at the same offset, block and page count: only the
// Seq tells the two apart.
func TestHintDeleteRecreate(t *testing.T) {
	t.Parallel()
	r := newRigInodes(t, 4) // root, a, and one slot b and c share
	r.write(t, "a", pages(3))
	r.engine.Drain()
	b := r.stage(t, "b", pages(3))
	node := hintedNode(t, r, "b")
	if err := r.fs.Delete("b"); err != nil {
		t.Fatal(err)
	}
	c := r.stage(t, "c", pages(5))
	fresh := hintedNode(t, r, "c")
	if c.Ino() != b.Ino() || fresh.EntryOff != node.EntryOff || fresh.Hint.Block != node.Hint.Block {
		t.Fatalf("c (ino %d, entry %d, block %d) did not reuse b's (ino %d, entry %d, block %d)",
			c.Ino(), fresh.EntryOff, fresh.Hint.Block, b.Ino(), node.EntryOff, node.Hint.Block)
	}
	if !r.engine.ProcessEntry(node, new(Scratch)) {
		t.Fatal("the stale node did not reach c's entry")
	}
	if st := r.engine.Stats(); st.PagesHinted != 0 || st.PagesDuplicate != 0 || st.PagesUnique != 2 {
		t.Fatalf("stats %+v: want c's page read from PM and unique; b's image was trusted", st)
	}
	r.engine.DWQ().Enqueue(fresh)
	checkWindowOutcome(t, r, map[string][]byte{"a": pages(3), "c": pages(5)})
}

// TestHintDWQSaveRestore: a saved and restored queue carries no hints; the
// save record stays the 16-byte (ino, entryOff) pair.
func TestHintDWQSaveRestore(t *testing.T) {
	t.Parallel()
	dev := pmem.New(1<<20, pmem.ProfileZero)
	q := NewDWQ()
	q.Enqueue(Node{Ino: 1, EntryOff: 64, Hint: nova.PageImages{Seq: 7, Block: 100, Imgs: [][]byte{pages(1), pages(2)}}})
	if n := q.hinted; n != 2 {
		t.Fatalf("queued %d hinted pages, want 2", n)
	}
	if saved, _ := q.Save(dev, 0, 1); saved != 1 {
		t.Fatalf("saved %d nodes, want 1", saved)
	}
	q2 := NewDWQ()
	if n, err := q2.Restore(dev, 0, 1); err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	if n := q2.hinted; n != 0 {
		t.Fatalf("restored queue holds %d hinted pages", n)
	}
	nodes := q2.DequeueBatch(0)
	if len(nodes) != 1 || nodes[0].Ino != 1 || nodes[0].EntryOff != 64 {
		t.Fatalf("restored %+v", nodes)
	}
	if h := nodes[0].Hint; h.Seq != 0 || h.Block != 0 || h.Imgs != nil {
		t.Fatalf("restored node kept its hint: %+v", h)
	}
}

// TestHintCap: past hintCap queued pages a node loses its hint (and is
// still queued); dequeueing gives the room back.
func TestHintCap(t *testing.T) {
	t.Parallel()
	q := NewDWQ()
	img := pages(1)
	hint := func(n int) nova.PageImages {
		imgs := make([][]byte, n)
		for i := range imgs {
			imgs[i] = img
		}
		return nova.PageImages{Seq: 1, Block: 1, Imgs: imgs}
	}
	q.Enqueue(Node{Ino: 1, Hint: hint(hintCap - 1)})
	q.Enqueue(Node{Ino: 2, Hint: hint(2)})
	q.Enqueue(Node{Ino: 3, Hint: hint(1)})
	if n := q.hinted; n != hintCap {
		t.Fatalf("hinted pages %d, want the cap %d", n, hintCap)
	}
	nodes := q.DequeueBatch(0)
	if len(nodes) != 3 || len(nodes[0].Hint.Imgs) != hintCap-1 || nodes[1].Hint.Imgs != nil || len(nodes[2].Hint.Imgs) != 1 {
		t.Fatalf("want the 2-page node past the cap unhinted, the others kept: %d, %d, %d images",
			len(nodes[0].Hint.Imgs), len(nodes[1].Hint.Imgs), len(nodes[2].Hint.Imgs))
	}
	if n := q.hinted; n != 0 {
		t.Fatalf("empty queue holds %d hinted pages", n)
	}
	q.Enqueue(Node{Ino: 4, Hint: hint(2)})
	if got := q.DequeueBatch(0); len(got) != 1 || !bytes.Equal(got[0].Hint.Imgs[1], img) {
		t.Fatal("the dequeue did not give the cap's room back")
	}
}
