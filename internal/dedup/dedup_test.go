package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"denova/internal/fact"
	"denova/internal/nova"
	"denova/internal/obs"
	"denova/internal/pmem"
)

const testDevSize = 32 << 20

// rig is a fully wired stack without a daemon: tests drive the engine
// synchronously for determinism.
type rig struct {
	dev    *pmem.Device
	fs     *nova.FS
	table  *fact.Table
	engine *Engine
}

func newRig(t testing.TB) *rig {
	t.Helper()
	return newRigInodes(t, 256)
}

// newRigInodes is newRig with room for maxInodes inodes, the root included.
func newRigInodes(t testing.TB, maxInodes int64) *rig {
	t.Helper()
	r, err := makeRig(maxInodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// makeRig is newRigInodes for sweep setups, which run off the test
// goroutine and so return errors instead of failing the test.
func makeRig(maxInodes int64) (*rig, error) {
	dev := pmem.New(testDevSize, pmem.ProfileZero)
	fs, err := nova.Mkfs(dev, maxInodes)
	if err != nil {
		return nil, err
	}
	table := fact.New(dev, fact.Config{
		Base:       fs.Geo.FactOff,
		PrefixBits: fs.Geo.FactPrefixBits,
		DataStart:  fs.Geo.DataStartBlock,
		NumData:    fs.Geo.NumDataBlocks,
	})
	table.ZeroFill()
	return &rig{dev: dev, fs: fs, table: table, engine: NewEngine(fs, table)}, nil
}

// attachRig remounts a crashed or unmounted device and runs full recovery.
func attachRig(t testing.TB, dev *pmem.Device) (*rig, RecoveryReport) {
	t.Helper()
	r, rep, err := attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	return r, rep
}

// attach is attachRig returning its error, for sweep setups and checks.
func attach(dev *pmem.Device) (*rig, RecoveryReport, error) {
	fs, scan, err := nova.Mount(dev)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	table := fact.Attach(dev, fact.Config{
		Base:       fs.Geo.FactOff,
		PrefixBits: fs.Geo.FactPrefixBits,
		DataStart:  fs.Geo.DataStartBlock,
		NumData:    fs.Geo.NumDataBlocks,
	})
	engine := NewEngine(fs, table)
	rep, err := Recover(engine, scan)
	return &rig{dev: dev, fs: fs, table: table, engine: engine}, rep, err
}

// sweep runs pmem.Sweep over op applied to a rig recovered from a clone of
// base, checking the rig recovered from each crash image, and fails the
// test with the lowest failing point.
func sweep(t *testing.T, base *pmem.Device, op func(r *rig) error, check func(r *rig, k int64) error, modes ...pmem.SweepMode) pmem.SweepResult {
	t.Helper()
	res, err := pmem.Sweep(func() (*pmem.Device, func() error, error) {
		work := base.Clone()
		r, _, err := attach(work)
		return work, func() error { return op(r) }, err
	}, func(img *pmem.Device, k int64) error {
		r, _, err := attach(img)
		if err != nil {
			return err
		}
		return check(r, k)
	}, modes...)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d persist points, %d crashed, %d images checked", res.Total, res.Points, res.Images)
	return res
}

func (r *rig) write(t testing.TB, name string, data []byte) *nova.Inode {
	t.Helper()
	in, err := r.fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.Write(in, 0, data, nova.FlagNeeded, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	return in
}

func (r *rig) read(t testing.TB, name string, n int) []byte {
	t.Helper()
	got, err := r.readFile(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// readFile reads up to n bytes of the named file from offset 0.
func (r *rig) readFile(name string, n int) ([]byte, error) {
	in, err := r.fs.Lookup(name)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	got, err := r.fs.Read(in, 0, buf, obs.SpanContext{})
	return buf[:got], err
}

// pages builds n pages of content; identical seeds give identical pages.
func pages(seeds ...byte) []byte {
	out := make([]byte, len(seeds)*ChunkSize)
	for i, s := range seeds {
		for j := 0; j < ChunkSize; j++ {
			out[i*ChunkSize+j] = byte(j)*7 + s
		}
	}
	return out
}

// --- Fingerprints ---

func TestStrongFingerprintDeterministic(t *testing.T) {
	t.Parallel()
	a := Strong(pages(1))
	b := Strong(pages(1))
	c := Strong(pages(2))
	if a != b {
		t.Fatal("SHA-1 not deterministic")
	}
	if a == c {
		t.Fatal("different content, same fingerprint")
	}
}

func TestWeakFingerprint(t *testing.T) {
	t.Parallel()
	if Weak(pages(1)) == Weak(pages(2)) {
		t.Fatal("weak fingerprint collision on trivially different data")
	}
	if Weak(pages(1)) != Weak(pages(1)) {
		t.Fatal("weak fingerprint not deterministic")
	}
}

// --- DWQ ---

func TestDWQFIFO(t *testing.T) {
	t.Parallel()
	q := NewDWQ()
	for i := uint64(1); i <= 5; i++ {
		q.Enqueue(Node{Ino: i, EntryOff: 1})
		q.Enqueue(Node{Ino: i, EntryOff: 2})
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	got := q.DequeueBatch(4)
	if len(got) != 4 {
		t.Fatalf("batch len = %d", len(got))
	}
	got = append(got, q.DequeueBatch(0)...)
	if len(got) != 10 {
		t.Fatalf("dequeued %d nodes, want 10", len(got))
	}
	for i, n := range got {
		if want := (Node{Ino: uint64(i/2 + 1), EntryOff: uint64(i%2 + 1)}); n.Ino != want.Ino || n.EntryOff != want.EntryOff {
			t.Fatalf("node %d = %d/%d, want %d/%d (enqueue order)", i, n.Ino, n.EntryOff, want.Ino, want.EntryOff)
		}
	}
	enq, deq := q.Counts()
	if enq != 10 || deq != 10 {
		t.Fatalf("counts = %d/%d", enq, deq)
	}
}

func TestDWQLingerHook(t *testing.T) {
	q := NewDWQ()
	var lingers []time.Duration
	q.SetLingerHook(func(d time.Duration) { lingers = append(lingers, d) })
	q.Enqueue(Node{Ino: 1, Enqueued: time.Now().Add(-time.Second)})
	q.DequeueBatch(0)
	if len(lingers) != 1 || lingers[0] < 900*time.Millisecond {
		t.Fatalf("lingers = %v", lingers)
	}
}

// TestSetLingerHookWhileDaemonRuns is the regression test for the hook
// being a plain field: FS.SetLingerHook runs after Mkfs has started the
// daemon, so the store raced with the load in DequeueBatch. Under -race it
// installs hooks while a writer enqueues and the pool dequeues, then checks
// the composition survived: the obs histogram saw every dequeue, and the
// last user hook saw the nodes dequeued after it was installed.
func TestSetLingerHookWhileDaemonRuns(t *testing.T) {
	r := newRig(t)
	o := NewObserver(obs.NewRegistry(), nil, false)
	r.engine.SetObserver(o)
	d := NewDaemon(r.engine, DaemonConfig{Workers: 2})
	d.Start()
	defer d.Stop()

	in, err := r.fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	write := func(seed byte) error {
		_, err := r.fs.Write(in, 0, pages(seed), nova.FlagNeeded, obs.SpanContext{})
		return err
	}
	const writes = 300
	writerDone := make(chan error, 1)
	go func() {
		for i := 0; i < writes; i++ {
			if err := write(byte(i)); err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()
	var calls atomic.Int64
	hook := func(time.Duration) { calls.Add(1) }
	for installing := true; installing; {
		select {
		case err := <-writerDone:
			if err != nil {
				t.Fatal(err)
			}
			installing = false
		default:
			r.engine.SetLingerHook(hook)
			r.engine.SetLingerHook(nil)
		}
	}
	d.WaitIdle()
	calls.Store(0)
	r.engine.SetLingerHook(hook)
	if err := write(1); err != nil {
		t.Fatal(err)
	}
	d.WaitIdle()
	if got := calls.Load(); got != 1 {
		t.Errorf("user hook saw %d dequeues after install, want 1", got)
	}
	if _, deq := r.engine.DWQ().Counts(); o.QueueWait.Count() != deq || deq != writes+1 {
		t.Errorf("dedup.queue_wait observed %d of %d dequeues (%d writes)", o.QueueWait.Count(), deq, writes+1)
	}
}

func TestDWQBatchSurvivesConcurrentEnqueues(t *testing.T) {
	t.Parallel()
	// Regression: DequeueBatch must copy nodes out. Returning a sub-slice
	// of the backing array let concurrent enqueues (after the queue reset
	// its head) overwrite a batch the consumer was still iterating,
	// silently duplicating some work items and dropping others.
	q := NewDWQ()
	const total = 5000
	seen := make(map[uint64]int, total)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(1); i <= total; i++ {
			q.Enqueue(Node{Ino: i})
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(seen) < total && time.Now().Before(deadline) {
		batch := q.DequeueBatch(7)
		// Hold the batch across more enqueues before reading it.
		runtime.Gosched()
		for _, n := range batch {
			seen[n.Ino]++
		}
	}
	<-done
	for _, n := range q.DequeueBatch(0) {
		seen[n.Ino]++
	}
	if len(seen) != total {
		t.Fatalf("saw %d distinct nodes, want %d", len(seen), total)
	}
	for ino, c := range seen {
		if c != 1 {
			t.Fatalf("node %d delivered %d times", ino, c)
		}
	}
}

func TestDWQSaveRestore(t *testing.T) {
	t.Parallel()
	dev := pmem.New(1<<20, pmem.ProfileZero)
	q := NewDWQ()
	for i := uint64(1); i <= 10; i++ {
		q.Enqueue(Node{Ino: i, EntryOff: i * 64})
	}
	saved, overflow := q.Save(dev, 0, 1)
	if saved != 10 || overflow {
		t.Fatalf("saved=%d overflow=%v", saved, overflow)
	}
	q2 := NewDWQ()
	n, err := q2.Restore(dev, 0, 1)
	if err != nil || n != 10 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	nodes := q2.DequeueBatch(0)
	seen := make(map[uint64]uint64, len(nodes))
	for _, nd := range nodes {
		seen[nd.Ino] = nd.EntryOff
	}
	for i := uint64(1); i <= 10; i++ {
		if seen[i] != i*64 {
			t.Fatalf("node ino=%d entryOff=%d, want %d", i, seen[i], i*64)
		}
	}
}

func TestDWQSaveOverflow(t *testing.T) {
	t.Parallel()
	dev := pmem.New(1<<20, pmem.ProfileZero)
	q := NewDWQ()
	capacity := (pmem.PageSize - dwqHdrSize) / dwqRecordSize
	for i := 0; i < capacity+5; i++ {
		q.Enqueue(Node{Ino: uint64(i + 1)})
	}
	saved, overflow := q.Save(dev, 0, 1)
	if saved != capacity || !overflow {
		t.Fatalf("saved=%d overflow=%v capacity=%d", saved, overflow, capacity)
	}
}

func TestDWQRestoreRejectsGarbage(t *testing.T) {
	t.Parallel()
	dev := pmem.New(1<<20, pmem.ProfileZero)
	q := NewDWQ()
	if _, err := q.Restore(dev, 0, 1); err == nil {
		t.Fatal("restored from empty area")
	}
	// Corrupt a valid snapshot's body.
	q.Enqueue(Node{Ino: 1})
	q.Save(dev, 0, 1)
	dev.WriteNT(dwqHdrSize, []byte{0xFF})
	if _, err := NewDWQ().Restore(dev, 0, 1); err == nil {
		t.Fatal("restored corrupted snapshot")
	}
}

func TestInvalidateSnapshot(t *testing.T) {
	t.Parallel()
	dev := pmem.New(1<<20, pmem.ProfileZero)
	q := NewDWQ()
	q.Enqueue(Node{Ino: 1})
	q.Save(dev, 0, 1)
	Invalidate(dev, 0)
	if _, err := NewDWQ().Restore(dev, 0, 1); err == nil {
		t.Fatal("restored invalidated snapshot")
	}
}

// --- Offline engine (Algorithm 1) ---

func TestDedupAcrossFiles(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	data := pages(1, 2, 3)
	r.write(t, "a", data)
	r.write(t, "b", data) // full duplicate
	free := r.fs.FreeBlocks()
	n := r.engine.Drain()
	if n != 2 {
		t.Fatalf("processed %d entries, want 2", n)
	}
	// Three duplicate pages reclaimed.
	if got := r.fs.FreeBlocks() - free; got != 3 {
		t.Fatalf("dedup freed %d blocks, want 3", got)
	}
	// Both files still read correctly.
	if !bytes.Equal(r.read(t, "a", len(data)), data) || !bytes.Equal(r.read(t, "b", len(data)), data) {
		t.Fatal("content damaged by dedup")
	}
	// They share physical blocks now.
	ina, _ := r.fs.Lookup("a")
	inb, _ := r.fs.Lookup("b")
	for pg := uint64(0); pg < 3; pg++ {
		ba, _, _ := ina.Mapping(pg)
		bb, _, _ := inb.Mapping(pg)
		if ba != bb {
			t.Fatalf("page %d not shared: %d vs %d", pg, ba, bb)
		}
		if rfcIdx, ok := r.table.DeletePtr(ba); !ok || r.table.RFC(rfcIdx) != 2 {
			t.Fatalf("page %d RFC wrong", pg)
		}
	}
	if err := r.table.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := r.engine.Stats()
	if st.PagesDuplicate != 3 || st.PagesUnique != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDedupWithinOneWrite(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	data := pages(7, 7, 7, 8) // three identical pages + one unique
	r.write(t, "f", data)
	r.engine.Drain()
	in, _ := r.fs.Lookup("f")
	b0, _, _ := in.Mapping(0)
	b1, _, _ := in.Mapping(1)
	b2, _, _ := in.Mapping(2)
	b3, _, _ := in.Mapping(3)
	if b0 != b1 || b1 != b2 {
		t.Fatalf("intra-write duplicates not collapsed: %d %d %d", b0, b1, b2)
	}
	if b3 == b0 {
		t.Fatal("unique page wrongly collapsed")
	}
	idx, _ := r.table.DeletePtr(b0)
	if r.table.RFC(idx) != 3 {
		t.Fatalf("RFC = %d, want 3", r.table.RFC(idx))
	}
	if !bytes.Equal(r.read(t, "f", len(data)), data) {
		t.Fatal("content damaged")
	}
}

func TestDedupSkipsShadowedPages(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "f", pages(1, 2))
	in, _ := r.fs.Lookup("f")
	// Overwrite page 0 before dedup runs: the queued entry's page 0 is
	// stale and must be skipped.
	if _, err := r.fs.Write(in, 0, pages(9), nova.FlagNeeded, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	r.engine.Drain()
	want := append(pages(9), pages(2)...)
	if !bytes.Equal(r.read(t, "f", len(want)), want) {
		t.Fatal("content wrong after shadowed dedup")
	}
	if r.engine.Stats().PagesStale == 0 {
		t.Fatal("no stale pages recorded")
	}
}

func TestDedupSkipsDeletedFile(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "f", pages(1))
	if err := r.fs.Delete("f"); err != nil {
		t.Fatal(err)
	}
	r.engine.Drain()
	if r.engine.Stats().EntriesSkipped == 0 {
		t.Fatal("deleted file's entry not skipped")
	}
	if r.table.LiveEntries() != 0 {
		t.Fatal("FACT grew entries for a deleted file")
	}
}

func TestReprocessingIsIdempotent(t *testing.T) {
	t.Parallel()
	// Inconsistency Handling III: re-enqueueing an already-processed entry
	// must not change RFCs or mappings.
	r := newRig(t)
	data := pages(1, 1) // one dup pair
	in := r.write(t, "f", data)
	enq, _ := r.engine.DWQ().Counts()
	_ = enq
	node := r.engine.DWQ().DequeueBatch(0)[0]
	r.engine.ProcessEntry(node, new(Scratch))
	idx, _ := r.table.DeletePtr(func() uint64 { b, _, _ := in.Mapping(0); return b }())
	rfcBefore := r.table.RFC(idx)

	// Simulate recovery resetting the flag and re-enqueueing: force the
	// flag back to needed (as Handling III describes for the target entry).
	nova.SetDedupeFlag(r.dev, node.EntryOff, nova.FlagNeeded)
	r.engine.ProcessEntry(node, new(Scratch))
	if got := r.table.RFC(idx); got != rfcBefore {
		t.Fatalf("RFC changed on reprocess: %d -> %d", rfcBefore, got)
	}
	if r.engine.Stats().PagesOwned == 0 {
		t.Fatal("owned pages not recognized on reprocess")
	}
	if !bytes.Equal(r.read(t, "f", len(data)), data) {
		t.Fatal("content damaged by reprocess")
	}
	if err := r.table.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedBlockSurvivesOneDelete(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	data := pages(5)
	r.write(t, "a", data)
	r.write(t, "b", data)
	r.engine.Drain()
	if err := r.fs.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.read(t, "b", len(data)), data) {
		t.Fatal("shared block freed while still referenced")
	}
	// Deleting the second reference frees everything.
	free := r.fs.FreeBlocks()
	if err := r.fs.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if r.fs.FreeBlocks() <= free {
		t.Fatal("last delete freed nothing")
	}
	if r.table.LiveEntries() != 0 {
		t.Fatalf("%d FACT entries leaked", r.table.LiveEntries())
	}
}

func TestOverwriteSharedBlockCoW(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	data := pages(5)
	r.write(t, "a", data)
	r.write(t, "b", data)
	r.engine.Drain()
	ina, _ := r.fs.Lookup("a")
	if _, err := r.fs.Write(ina, 0, pages(6), nova.FlagNeeded, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	r.engine.Drain()
	if !bytes.Equal(r.read(t, "a", ChunkSize), pages(6)) {
		t.Fatal("overwrite lost")
	}
	if !bytes.Equal(r.read(t, "b", ChunkSize), pages(5)) {
		t.Fatal("CoW violated: b changed when a was overwritten")
	}
}

// --- Inline engine ---

func TestInlineDedupBasic(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	data := pages(1, 2, 1) // page 2 duplicates page 0
	in, _ := r.fs.Create("f")
	if err := r.engine.WriteInline(in, 0, data); err != nil {
		t.Fatal(err)
	}
	b0, _, _ := in.Mapping(0)
	b2, _, _ := in.Mapping(2)
	if b0 != b2 {
		t.Fatal("inline dedup did not collapse duplicate page")
	}
	if !bytes.Equal(r.read(t, "f", len(data)), data) {
		t.Fatal("inline content wrong")
	}
	if in.Size() != uint64(len(data)) {
		t.Fatalf("size = %d", in.Size())
	}
	if err := r.table.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInlineDedupAcrossWrites(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	a, _ := r.fs.Create("a")
	b, _ := r.fs.Create("b")
	if err := r.engine.WriteInline(a, 0, pages(3)); err != nil {
		t.Fatal(err)
	}
	free := r.fs.FreeBlocks()
	if err := r.engine.WriteInline(b, 0, pages(3)); err != nil {
		t.Fatal(err)
	}
	// Duplicate write must not consume a data block (log growth aside).
	if used := free - r.fs.FreeBlocks(); used > 1 {
		t.Fatalf("duplicate inline write consumed %d blocks", used)
	}
	if !bytes.Equal(r.read(t, "b", ChunkSize), pages(3)) {
		t.Fatal("content wrong")
	}
}

func TestInlinePartialPageWrite(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	in, _ := r.fs.Create("f")
	if err := r.engine.WriteInline(in, 0, pages(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.engine.WriteInline(in, 100, []byte("patch")); err != nil {
		t.Fatal(err)
	}
	want := pages(1)
	copy(want[100:], "patch")
	if !bytes.Equal(r.read(t, "f", ChunkSize), want) {
		t.Fatal("inline partial write corrupted page")
	}
}

func TestInlineUnalignedMultiPage(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	in, _ := r.fs.Create("f")
	base := pages(1, 2, 3)
	if err := r.engine.WriteInline(in, 0, base); err != nil {
		t.Fatal(err)
	}
	patch := pages(9)
	if err := r.engine.WriteInline(in, ChunkSize/2, patch); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, base...)
	copy(want[ChunkSize/2:], patch)
	if !bytes.Equal(r.read(t, "f", len(base)), want) {
		t.Fatal("inline spanning write corrupted data")
	}
}

// TestInlineWriteENOSPC runs an inline write out of space and requires the
// failure to leave nothing behind: no open FACT transaction, no appended
// entry for the inode's next commit to publish, an exact free-block count,
// a clean fsck — and the same write succeeding once space returns. In the
// mid-transaction case the tail log page has one free slot for a two-page
// write whose first page is a duplicate: an append that reserved per page
// used to fail at the second page, leaving the first appended and its UC
// open.
func TestInlineWriteENOSPC(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name      string
		freeSlots int   // left in the tail log page
		leave     int   // free blocks left
		spare     int64 // of which the failed write keeps this many as a spare log page
	}{
		{name: "log reservation", freeSlots: 0},
		{name: "mid-transaction", freeSlots: 1, leave: 1, spare: 1},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			r := newRig(t)
			r.write(t, "src", pages(9))
			r.engine.Drain() // pages(9) now has a FACT entry
			in, err := r.fs.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < nova.EntriesPerLogPage-tc.freeSlots; i++ {
				if _, err := r.fs.Write(in, 0, pages(1), nova.FlagNone, obs.SpanContext{}); err != nil {
					t.Fatal(err)
				}
			}
			held := make(map[uint64]bool)
			for {
				b, err := r.fs.Allocator().Alloc(0, 1)
				if err != nil {
					break
				}
				held[b] = true
			}
			for b := range held {
				if r.fs.FreeBlocks() == int64(tc.leave) {
					break
				}
				r.fs.Allocator().Free(b, 1)
				delete(held, b)
			}
			fsck := func(when string) {
				t.Helper()
				if err := r.fs.Fsck(func(b uint64) bool {
					idx, ok := r.table.DeletePtr(b)
					return held[b] || ok && (r.table.RFC(idx) > 0 || r.table.UC(idx) > 0)
				}); err != nil {
					t.Fatalf("fsck %s: %v", when, err)
				}
			}
			free0 := r.fs.FreeBlocks()
			if err := r.engine.WriteInline(in, 0, pages(9, 10)); !errors.Is(err, nova.ErrNoSpace) {
				t.Fatalf("with %d free blocks: err = %v, want ErrNoSpace", free0, err)
			}
			for i := int64(0); i < r.table.TotalEntries(); i++ {
				if uc := r.table.UC(uint64(i)); uc != 0 {
					t.Errorf("entry %d: UC=%d left open by the failed write", i, uc)
				}
			}
			if got := r.fs.FreeBlocks(); got != free0-tc.spare {
				t.Errorf("failed write moved the free count %d -> %d, want %d spare log page(s) kept", free0, got, tc.spare)
			}
			// A commit now must publish nothing.
			in.Lock()
			r.fs.CommitLocked(in)
			in.Unlock()
			if got := r.read(t, "f", ChunkSize); !bytes.Equal(got, pages(1)) {
				t.Error("failed write changed the file")
			}
			fsck("after the failure and a commit")

			for b := range held {
				r.fs.Allocator().Free(b, 1)
				delete(held, b)
			}
			if err := r.engine.WriteInline(in, 0, pages(9, 10)); err != nil {
				t.Fatalf("retry with space freed: %v", err)
			}
			if got := r.read(t, "f", 2*ChunkSize); !bytes.Equal(got, pages(9, 10)) {
				t.Error("content mismatch after the retry")
			}
			fsck("after the retry")
		})
	}
}

// --- Daemon ---

func TestDaemonImmediateProcesses(t *testing.T) {
	r := newRig(t)
	d := NewDaemon(r.engine, DaemonConfig{Interval: 0, Workers: 2})
	d.Start()
	defer d.Stop()
	r.write(t, "a", pages(1))
	r.write(t, "b", pages(1))
	deadline := time.Now().Add(5 * time.Second)
	for r.engine.Stats().PagesDuplicate == 0 {
		if time.Now().After(deadline) {
			t.Fatal("immediate daemon never deduplicated")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDaemonDelayedBatching(t *testing.T) {
	r := newRig(t)
	d := NewDaemon(r.engine, DaemonConfig{Interval: 10 * time.Millisecond, Batch: 1, Workers: 2})
	d.Start()
	defer d.Stop()
	for i := 0; i < 5; i++ {
		r.write(t, fmt.Sprintf("f%d", i), pages(byte(i)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if enq, deq := r.engine.DWQ().Counts(); deq == enq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delayed daemon did not drain the queue")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d.Wakeups() < 5 {
		t.Fatalf("wakeups = %d, want >= 5 (batch=1, 5 nodes)", d.Wakeups())
	}
}

func TestDaemonDrainSync(t *testing.T) {
	r := newRig(t)
	d := NewDaemon(r.engine, DaemonConfig{Interval: time.Hour, Workers: 2}) // never ticks
	d.Start()
	defer d.Stop()
	free0 := r.fs.FreeBlocks()
	r.write(t, "a", pages(1))
	r.write(t, "b", pages(1))
	d.DrainSync()
	if r.engine.Stats().PagesDuplicate != 1 {
		t.Fatalf("DrainSync did not process queue: %+v", r.engine.Stats())
	}
	// With the daemon running the deletes leave their decrements to it, and
	// a worker never gets to them here: DrainSync must release them itself.
	for _, name := range []string{"a", "b"} {
		if err := r.fs.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
	if r.fs.ReclaimQueued() == 0 {
		t.Fatal("the deletes released their blocks synchronously with a daemon running")
	}
	d.DrainSync()
	if q, live, free := r.fs.ReclaimQueued(), r.table.LiveEntries(), r.fs.FreeBlocks(); q != 0 || live != 0 || free != free0 {
		t.Fatalf("after DrainSync: %d blocks queued, %d FACT entries left, %d free blocks (started at %d)", q, live, free, free0)
	}
}

// --- Scrubber ---

func TestScrubberReclaimsLeakedBlocks(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	data := pages(4)
	r.write(t, "a", data)
	r.write(t, "b", data)
	r.engine.Drain()
	ina, _ := r.fs.Lookup("a")
	block, _, _ := ina.Mapping(0)
	idx, _ := r.table.DeletePtr(block)
	// Manufacture an RFC over-increment (what a crash can leave behind).
	r.table.CommitTxn(idx) // no-op (UC=0) — so force via a fake txn:
	res, _ := r.table.BeginTxn(Strong(data[:ChunkSize]), block)
	r.table.CommitTxn(res.Idx) // RFC now 3 with only 2 references
	r.fs.Delete("a")
	r.fs.Delete("b") // RFC drains 3->1; block leaks (no file uses it)
	free := r.fs.FreeBlocks()
	dropped := r.engine.ScrubNow()
	if dropped != 1 {
		t.Fatalf("scrubber dropped %d entries, want 1", dropped)
	}
	if r.fs.FreeBlocks() != free+1 {
		t.Fatal("leaked block not returned to the free list")
	}
	if err := r.table.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- Crash recovery sweeps (§V-C) ---

// buildCrashBase creates a device with two committed files awaiting dedup
// and returns it cleanly unmounted... actually dirty: the DWQ is only in
// DRAM, exactly the §V-C "failure before deduplication" state.
func buildCrashBase(t *testing.T) *pmem.Device {
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
	engine := NewEngine(fs, table)
	_ = engine
	in1, _ := fs.Create("a")
	fs.Write(in1, 0, pages(1, 2, 3), nova.FlagNeeded, obs.SpanContext{})
	in2, _ := fs.Create("b")
	fs.Write(in2, 0, pages(1, 9, 3), nova.FlagNeeded, obs.SpanContext{})
	return dev
}

// postRecovery checks every §V-C invariant after a crash+recovery.
func postRecovery(r *rig) error {
	if err := r.table.CheckInvariants(); err != nil {
		return fmt.Errorf("FACT invariants: %v", err)
	}
	wantA, wantB := pages(1, 2, 3), pages(1, 9, 3)
	files := func(when string) error {
		for name, want := range map[string][]byte{"a": wantA, "b": wantB} {
			if got, err := r.readFile(name, len(want)); err != nil || !bytes.Equal(got, want) {
				return fmt.Errorf("file %s corrupted%s (%v)", name, when, err)
			}
		}
		return nil
	}
	if err := files(""); err != nil {
		return err
	}
	// No UC survives recovery.
	for i := int64(0); i < r.table.TotalEntries(); i++ {
		if r.table.UC(uint64(i)) != 0 {
			return fmt.Errorf("UC leaked on entry %d", i)
		}
	}
	// Finish deduplication after recovery and re-verify content + sharing.
	r.engine.Drain()
	if err := files(" after post-recovery dedup"); err != nil {
		return err
	}
	if err := r.table.CheckInvariants(); err != nil {
		return fmt.Errorf("invariants after drain: %v", err)
	}
	// The duplicate pages (1 and 3) must end up shared.
	ina, _ := r.fs.Lookup("a")
	inb, _ := r.fs.Lookup("b")
	for _, pg := range []uint64{0, 2} {
		ba, _, _ := ina.Mapping(pg)
		bb, _, _ := inb.Mapping(pg)
		if ba != bb {
			return fmt.Errorf("page %d not shared after recovery+drain", pg)
		}
	}
	return nil
}

// The dedup-transaction sweeps crash the drain of buildCrashBase at its
// persist points. Their images and checks split one grid with no cell twice:
// the drop-dirty and keep-dirty images get the §V-C checks and the FACT-aware
// fsck, the evict-random images (every other point, three seeds) get the
// §V-C checks in one test and the fsck in another.
var evictSampled = pmem.SweepMode{Mode: pmem.CrashEvictRandom, Seeds: 3, Stride: 2}

// sweepDedupTxn sweeps the drain of buildCrashBase under modes.
func sweepDedupTxn(t *testing.T, check func(r *rig, k int64) error, modes ...pmem.SweepMode) pmem.SweepResult {
	t.Helper()
	res := sweep(t, buildCrashBase(t), func(r *rig) error { r.engine.Drain(); return nil }, check, modes...)
	if res.Total < 10 {
		t.Fatalf("suspiciously few persist points: %d", res.Total)
	}
	return res
}

// dedupTxnChecks are the §V-C checks: the files and sharing survive, and
// every reference count covers the file mappings that name its block.
func dedupTxnChecks(r *rig, _ int64) error {
	if err := postRecovery(r); err != nil {
		return err
	}
	return rfcCoversRefs(r)
}

// TestCrashSweepDuringDedup is the centerpiece §V-C experiment: crash at
// EVERY persist point inside the deduplication transaction, recover, and
// verify consistency on the CrashDropDirty image, which keeps only what was
// explicitly flushed. After the §V-C checks the whole device must pass
// nova.Fsck with the FACT-aware block-ownership callback.
func TestCrashSweepDuringDedup(t *testing.T) {
	t.Parallel()
	sweepDedupTxn(t, func(r *rig, k int64) error {
		if err := dedupTxnChecks(r, k); err != nil {
			return err
		}
		return fsckAfterRecovery(r)
	}, pmem.SweepMode{Mode: pmem.CrashDropDirty})
}

// TestCrashSweepDuringDedupWithEviction is the same sweep with random
// cache-line eviction at the crash: stores that were never flushed may still
// persist. The §V-C checks must hold.
func TestCrashSweepDuringDedupWithEviction(t *testing.T) {
	t.Parallel()
	sweepDedupTxn(t, dedupTxnChecks, evictSampled)
}

// TestCrashSweepDuringReclaim is §V-C "Failures during Page Reclamation":
// crash at every persist point of an overwrite that reclaims a shared
// deduplicated block, on the CrashDropDirty image (its CrashKeepDirty twin
// is TestCrashSweepReclaimKeepDirty). File b must NEVER lose its data,
// whatever happened to a's overwrite — this is exactly the dangling-pointer
// hazard the count-based scheme prevents — a reads as old or new per page,
// and the device passes fsck.
func TestCrashSweepDuringReclaim(t *testing.T) {
	t.Parallel()
	sweepReclaim(t, pmem.SweepMode{Mode: pmem.CrashDropDirty})
}

// sweepReclaim sweeps the overwrite of a shared block under modes.
func sweepReclaim(t *testing.T, modes ...pmem.SweepMode) {
	t.Helper()
	r := newRig(t)
	r.write(t, "a", pages(1, 2))
	r.write(t, "b", pages(1, 2))
	r.engine.Drain()
	op := func(r *rig) error {
		in, err := r.fs.Lookup("a")
		if err != nil {
			return err
		}
		r.fs.Write(in, 0, pages(8, 9), nova.FlagNeeded, obs.SpanContext{})
		r.engine.Drain()
		return nil
	}
	sweep(t, r.dev, op, func(rec *rig, _ int64) error {
		if err := rec.table.CheckInvariants(); err != nil {
			return err
		}
		if got, err := rec.readFile("b", 2*ChunkSize); err != nil || !bytes.Equal(got, pages(1, 2)) {
			return fmt.Errorf("shared data lost: b corrupted (%v)", err)
		}
		ina, err := rec.fs.Lookup("a")
		if err != nil {
			return err
		}
		buf := make([]byte, ChunkSize)
		for pg := uint64(0); pg < 2; pg++ {
			rec.fs.Read(ina, pg*ChunkSize, buf, obs.SpanContext{})
			if !bytes.Equal(buf, pages(byte(1+pg))) && !bytes.Equal(buf, pages(byte(8+pg))) {
				return fmt.Errorf("page %d is neither old nor new", pg)
			}
		}
		return fsckAfterRecovery(rec)
	}, modes...)
}

func TestRecoveryRebuildsDWQFromFlags(t *testing.T) {
	t.Parallel()
	dev := buildCrashBase(t) // two entries flagged dedupe_needed, dirty
	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	r, rep := attachRig(t, img)
	if rep.RestoredFromSnapshot {
		t.Fatal("dirty mount claimed snapshot restore")
	}
	if rep.Requeued != 2 {
		t.Fatalf("requeued %d entries, want 2", rep.Requeued)
	}
	r.engine.Drain()
	if r.engine.Stats().PagesDuplicate == 0 {
		t.Fatal("rebuilt queue did not lead to dedup")
	}
}

func TestCleanUnmountRestoresDWQSnapshot(t *testing.T) {
	t.Parallel()
	dev := pmem.New(testDevSize, pmem.ProfileZero)
	fs, _ := nova.Mkfs(dev, 64)
	table := fact.New(dev, fact.Config{
		Base:       fs.Geo.FactOff,
		PrefixBits: fs.Geo.FactPrefixBits,
		DataStart:  fs.Geo.DataStartBlock,
		NumData:    fs.Geo.NumDataBlocks,
	})
	table.ZeroFill()
	e := NewEngine(fs, table)
	in, _ := fs.Create("f")
	fs.Write(in, 0, pages(1), nova.FlagNeeded, obs.SpanContext{})
	fs.Write(in, ChunkSize, pages(1), nova.FlagNeeded, obs.SpanContext{})
	// Clean unmount with the queue unprocessed.
	if saved, overflow := SaveDWQ(e); saved != 2 || overflow {
		t.Fatalf("saved=%d overflow=%v", saved, overflow)
	}
	fs.Unmount()

	r, rep := attachRig(t, dev)
	if !rep.RestoredFromSnapshot || rep.Requeued != 2 {
		t.Fatalf("restore: %+v", rep)
	}
	r.engine.Drain()
	if r.engine.Stats().PagesDuplicate != 1 {
		t.Fatalf("restored queue processing: %+v", r.engine.Stats())
	}
}

// --- Interplay with NOVA's thorough GC ---

func TestThoroughGCKeepsDedupWorking(t *testing.T) {
	t.Parallel()
	// An entry awaiting dedup is relocated by a log compaction: the stale
	// DWQ node must be skipped, the re-enqueued one processed, and the
	// duplicate still collapsed.
	r := newRig(t)
	dupData := pages(42)
	r.write(t, "canon", dupData)
	r.engine.Drain() // canonical content now in FACT

	in, err := r.fs.Create("victim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.Write(in, 0, dupData, nova.FlagNeeded, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	// Churn enough no-dedup writes to relocate the entry via compaction.
	for i := 0; i < 6*nova.EntriesPerLogPage; i++ {
		if _, err := r.fs.Write(in, ChunkSize, pages(byte(i)), nova.FlagNone, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	if r.fs.ForceThoroughGC(in) == 0 {
		t.Skip("no compaction at this shape")
	}
	r.engine.Drain()
	// The victim's page 0 must share the canonical block.
	canon, _ := r.fs.Lookup("canon")
	cb, _, _ := canon.Mapping(0)
	vb, _, _ := in.Mapping(0)
	if cb != vb {
		t.Fatalf("dedup lost across compaction: %d vs %d", cb, vb)
	}
	if skipped := r.engine.Stats().EntriesSkipped; skipped == 0 {
		t.Fatal("stale (pre-GC) DWQ node was not skipped")
	}
	if err := r.table.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Fsck(func(b uint64) bool {
		idx, ok := r.table.DeletePtr(b)
		return ok && r.table.RFC(idx) > 0
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDrainSyncKeepsWorkerPin: DrainSync must not break the free-pin of a
// batch a worker still has in flight. A broken pin makes the worker drop
// every page of a node whose radix tree moved in its unlocked window, so
// those pages stay un-deduplicated after Sync returns.
func TestDrainSyncKeepsWorkerPin(t *testing.T) {
	r := newRig(t)
	data := pages(1, 2)
	r.write(t, "a", data)
	b := r.write(t, "b", data)
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	r.engine.hashed = func(n Node) {
		if n.Ino == b.Ino() && held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	d := NewDaemon(r.engine, DaemonConfig{Workers: 1})
	d.Start()
	defer d.Stop()
	<-entered
	// Move b's radix tree while the worker is in its window, outside the
	// pages its node covers.
	if _, err := r.fs.Write(b, 5*ChunkSize, pages(3), nova.FlagNeeded, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	synced := make(chan struct{})
	go func() {
		d.DrainSync()
		close(synced)
	}()
	// Give a DrainSync that does not wait for the worker time to reach its
	// forced reclaim drain before the window closes.
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-synced
	if got := r.engine.Stats().PagesDuplicate; got != 2 {
		t.Fatalf("%d pages deduplicated after DrainSync, want b's 2", got)
	}
}

// TestDaemonScrubEvery exercises the daemon-integrated scrubber path.
func TestDaemonScrubEvery(t *testing.T) {
	r := newRig(t)
	d := NewDaemon(r.engine, DaemonConfig{Interval: time.Millisecond, Batch: 100, ScrubEvery: 2, Workers: 2})
	d.Start()
	defer d.Stop()
	data := pages(4)
	r.write(t, "a", data)
	r.write(t, "b", data)
	deadline := time.Now().Add(5 * time.Second)
	for r.engine.Stats().PagesDuplicate == 0 {
		if time.Now().After(deadline) {
			t.Fatal("daemon never deduplicated")
		}
		time.Sleep(time.Millisecond)
	}
	// Let several scrub ticks run against the live FS.
	for d.Wakeups() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	if !bytes.Equal(r.read(t, "a", len(data)), data) {
		t.Fatal("scrub ticks damaged live data")
	}
	if err := r.table.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStatsAccounting sanity-checks the counters after a known
// workload.
func TestEngineStatsAccounting(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "a", pages(1, 2)) // 2 unique
	r.write(t, "b", pages(1, 3)) // 1 dup + 1 unique
	r.engine.Drain()
	st := r.engine.Stats()
	if st.EntriesProcessed != 2 || st.PagesScanned != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PagesUnique != 3 || st.PagesDuplicate != 1 {
		t.Fatalf("unique/dup = %d/%d", st.PagesUnique, st.PagesDuplicate)
	}
	if st.BytesDeduped != ChunkSize {
		t.Fatalf("BytesDeduped = %d", st.BytesDeduped)
	}
}

// TestDWQPeakTracking verifies the DRAM high-water-mark counter.
func TestDWQPeakTracking(t *testing.T) {
	t.Parallel()
	q := NewDWQ()
	for i := uint64(1); i <= 5; i++ {
		q.Enqueue(Node{Ino: i})
	}
	q.DequeueBatch(3)
	q.Enqueue(Node{Ino: 6})
	if q.Peak() != 5 {
		t.Fatalf("Peak = %d, want 5", q.Peak())
	}
}

// TestRemapCommitBudget is the dedup side of nova's TestCommitBudget:
// draining a node of k duplicate pages appends k remap entries and commits
// them once. Every page past the first adds four flushed lines — its remap
// entry, its FACT counts word at BeginTxn and again in CommitTxnBatch, the
// entry's dedupe-flag turning complete — and two fences, BeginTxn's and the
// flag's, none for the append: the k entries ride the one fence of the
// commit.
func TestRemapCommitBudget(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "canonical", pages(1, 2, 3))
	r.engine.Drain()
	for k, want := range []struct{ fences, flushed int64 }{1: {7, 7}, 2: {9, 11}, 3: {11, 15}} {
		if k == 0 {
			continue
		}
		r.write(t, fmt.Sprintf("dup%d", k), pages(1, 2, 3)[:k*ChunkSize])
		before := r.dev.Stats()
		r.engine.Drain()
		c := r.dev.Stats().Sub(before)
		if c.Fences != want.fences || c.FlushedLines != want.flushed || c.NTLines != 0 {
			t.Errorf("node of %d duplicate pages: %d fences / %d flushed lines / %d NT lines, want %d / %d / 0",
				k, c.Fences, c.FlushedLines, c.NTLines, want.fences, want.flushed)
		}
	}
	if got := r.engine.Stats().PagesDuplicate; got != 6 {
		t.Errorf("PagesDuplicate = %d, want 6", got)
	}
}
