package nova

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"denova/internal/obs"
	"denova/internal/pmem"
)

const testDevSize = 64 << 20 // 64 MB

func mkfsT(t *testing.T) (*pmem.Device, *FS) {
	t.Helper()
	dev := pmem.New(testDevSize, pmem.ProfileZero)
	fs, err := Mkfs(dev, 1024)
	if err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	return dev, fs
}

func writeFileT(t *testing.T, fs *FS, name string, data []byte) *Inode {
	t.Helper()
	in, err := fs.Create(name)
	if err != nil {
		t.Fatalf("Create(%q): %v", name, err)
	}
	if _, err := fs.Write(in, 0, data, FlagNone, obs.SpanContext{}); err != nil {
		t.Fatalf("Write(%q): %v", name, err)
	}
	return in
}

func readFileT(t testing.TB, fs *FS, in *Inode, off uint64, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	got, err := fs.Read(in, off, buf, obs.SpanContext{})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return buf[:got]
}

func patternData(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*31 + seed
	}
	return p
}

// --- Geometry & superblock ---

func TestComputeGeometryInvariants(t *testing.T) {
	t.Parallel()
	for _, size := range []int64{8 << 20, 64 << 20, 256 << 20, 1 << 30} {
		g, err := ComputeGeometry(size, 1024)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if int64(1)<<uint(g.FactPrefixBits) < g.NumDataBlocks {
			t.Errorf("size %d: DAA (2^%d) smaller than data blocks %d", size, g.FactPrefixBits, g.NumDataBlocks)
		}
		// Regions must tile without overlap.
		if g.InodeTableOff != PageSize {
			t.Errorf("inode table not at page 1")
		}
		if g.FactOff != g.InodeTableOff+g.InodeTablePages*PageSize {
			t.Errorf("FACT region misplaced")
		}
		if g.DataOff != g.DWQSaveOff+g.DWQSavePages*PageSize {
			t.Errorf("data region misplaced")
		}
		if g.DataOff+g.NumDataBlocks*PageSize > size {
			t.Errorf("size %d: data region exceeds device", size)
		}
		// FACT overhead should be around the paper's 3.2 % of capacity.
		overhead := float64(g.FactPages*PageSize) / float64(size)
		if overhead > 0.07 {
			t.Errorf("size %d: FACT overhead %.1f%% too large", size, overhead*100)
		}
	}
}

func TestComputeGeometryTooSmall(t *testing.T) {
	t.Parallel()
	if _, err := ComputeGeometry(3*PageSize, 16); err == nil {
		t.Fatal("expected error for tiny device")
	}
	if _, err := ComputeGeometry(64<<20, 1); err == nil {
		t.Fatal("expected error for maxInodes < 2")
	}
}

func TestSuperblockRoundTrip(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	g, epoch, err := readSuperblock(dev)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Errorf("epoch = %d", epoch)
	}
	if g.NumDataBlocks != fs.Geo.NumDataBlocks || g.FactPrefixBits != fs.Geo.FactPrefixBits {
		t.Errorf("geometry mismatch: %+v vs %+v", g, fs.Geo)
	}
}

func TestSuperblockCorruptionDetected(t *testing.T) {
	t.Parallel()
	dev, _ := mkfsT(t)
	dev.WriteNT(sbNumData, []byte{0xFF}) // flip a geometry byte
	if _, _, err := readSuperblock(dev); err == nil {
		t.Fatal("corrupted superblock accepted")
	}
}

func TestMountUnformattedDevice(t *testing.T) {
	t.Parallel()
	dev := pmem.New(testDevSize, pmem.ProfileZero)
	if _, _, err := Mount(dev); err == nil {
		t.Fatal("mounting unformatted device succeeded")
	}
}

// --- Allocator ---

func TestAllocatorExhaustion(t *testing.T) {
	t.Parallel()
	a := NewAllocator(100, 10, 2)
	got := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		b, err := a.Alloc(0, 1)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if got[b] {
			t.Fatalf("block %d allocated twice", b)
		}
		got[b] = true
	}
	if _, err := a.Alloc(0, 1); err != ErrNoSpace {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
	if a.FreeBlocks() != 0 {
		t.Fatalf("FreeBlocks = %d", a.FreeBlocks())
	}
}

func TestAllocatorContiguity(t *testing.T) {
	t.Parallel()
	a := NewAllocator(0, 64, 1)
	b, err := a.Alloc(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.Alloc(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if c < b+16 && b < c+16 {
		t.Fatalf("overlapping runs %d and %d", b, c)
	}
}

func TestAllocatorCoalescing(t *testing.T) {
	t.Parallel()
	a := NewAllocator(0, 8, 1)
	b, _ := a.Alloc(0, 8)
	// Free in two halves, then allocate the full run again: requires merge.
	a.Free(b, 4)
	a.Free(b+4, 4)
	if _, err := a.Alloc(0, 8); err != nil {
		t.Fatalf("coalescing failed: %v", err)
	}
}

func TestAllocatorDoubleFreePanics(t *testing.T) {
	t.Parallel()
	a := NewAllocator(0, 8, 1)
	b, _ := a.Alloc(0, 2)
	a.Free(b, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("double free not detected")
		}
	}()
	a.Free(b, 2)
}

func TestAllocatorStealing(t *testing.T) {
	t.Parallel()
	a := NewAllocator(0, 16, 4) // 4 blocks per shard
	// Exhaust shard 0's region via hint 0, then keep allocating: must steal.
	for i := 0; i < 16; i++ {
		if _, err := a.Alloc(0, 1); err != nil {
			t.Fatalf("alloc %d failed despite free space: %v", i, err)
		}
	}
}

func TestAllocatorFromBitmap(t *testing.T) {
	t.Parallel()
	used := make([]bool, 20)
	for _, i := range []int{0, 3, 4, 5, 19} {
		used[i] = true
	}
	a := NewAllocatorFromBitmap(100, 20, 2, used)
	if a.FreeBlocks() != 15 {
		t.Fatalf("FreeBlocks = %d, want 15", a.FreeBlocks())
	}
	seen := map[uint64]bool{}
	for {
		b, err := a.Alloc(0, 1)
		if err != nil {
			break
		}
		if used[b-100] {
			t.Fatalf("allocator handed out used block %d", b)
		}
		if seen[b] {
			t.Fatalf("block %d handed out twice", b)
		}
		seen[b] = true
	}
	if len(seen) != 15 {
		t.Fatalf("allocated %d blocks, want 15", len(seen))
	}
}

func TestPropertyAllocatorNeverOverlaps(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(0, 256, 3)
		type run struct{ start, n uint64 }
		var live []run
		owned := map[uint64]bool{}
		for i := 0; i < 300; i++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				n := int64(rng.Intn(8) + 1)
				b, err := a.Alloc(rng.Intn(3), n)
				if err != nil {
					continue
				}
				for j := uint64(0); j < uint64(n); j++ {
					if owned[b+j] {
						return false // double allocation
					}
					owned[b+j] = true
				}
				live = append(live, run{b, uint64(n)})
			} else {
				i := rng.Intn(len(live))
				r := live[i]
				a.Free(r.start, int64(r.n))
				for j := uint64(0); j < r.n; j++ {
					delete(owned, r.start+j)
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		return a.FreeBlocks() == 256-int64(len(owned))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- Entries ---

func TestWriteEntryRoundTrip(t *testing.T) {
	t.Parallel()
	e := WriteEntry{DedupeFlag: FlagNeeded, NumPages: 7, PgOff: 42, Block: 9999, EndOff: 12345, Ino: 3, Mtime: 88, Seq: 77}
	rec := encodeWriteEntry(e)
	got, err := decodeWriteEntry(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip: got %+v want %+v", got, e)
	}
}

func TestWriteEntryCsumCoversDataButNotFlag(t *testing.T) {
	t.Parallel()
	rec := encodeWriteEntry(WriteEntry{NumPages: 1, Block: 5, Ino: 2})
	// Mutating the flag must NOT break the checksum (it is updated in place).
	rec.PutU8(weFlag, FlagComplete)
	if _, err := decodeWriteEntry(rec); err != nil {
		t.Fatalf("flag change broke checksum: %v", err)
	}
	// Mutating a data field must break it.
	rec.PutU64(weBlock, 6)
	if _, err := decodeWriteEntry(rec); err == nil {
		t.Fatal("corrupted entry accepted")
	}
}

func TestDentryRoundTrip(t *testing.T) {
	t.Parallel()
	for _, d := range []Dentry{
		{Ino: 5, Name: "a"},
		{Ino: 6, Name: "exactly-forty-eight-bytes-long-name-for-test-00"},
		{Remove: true, Ino: 7, Name: "gone"},
	} {
		rec, err := encodeDentry(d)
		if err != nil {
			t.Fatalf("%+v: %v", d, err)
		}
		got, err := decodeDentry(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got != d {
			t.Fatalf("got %+v want %+v", got, d)
		}
	}
}

func TestDentryNameTooLong(t *testing.T) {
	t.Parallel()
	_, err := encodeDentry(Dentry{Ino: 1, Name: string(make([]byte, MaxNameLen+1))})
	if err == nil {
		t.Fatal("oversized name accepted")
	}
	if _, err := encodeDentry(Dentry{Ino: 1, Name: ""}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestSetDedupeFlagPersistent(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	in := writeFileT(t, fs, "f", patternData(100, 1))
	_, entryOff, _ := in.Mapping(0)
	SetDedupeFlag(dev, entryOff, FlagComplete)
	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	if got := DedupeFlagOf(img, entryOff); got != FlagComplete {
		t.Fatalf("flag after crash = %d, want %d", got, FlagComplete)
	}
}

// --- Basic file I/O ---

func TestWriteReadSmall(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	data := patternData(100, 3)
	in := writeFileT(t, fs, "small", data)
	if got := readFileT(t, fs, in, 0, 200); !bytes.Equal(got, data) {
		t.Fatalf("read %d bytes, mismatch", len(got))
	}
	if in.Size() != 100 {
		t.Fatalf("size = %d", in.Size())
	}
}

func TestWriteReadMultiPage(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	data := patternData(3*PageSize+123, 5)
	in := writeFileT(t, fs, "big", data)
	if got := readFileT(t, fs, in, 0, len(data)+100); !bytes.Equal(got, data) {
		t.Fatal("multi-page read mismatch")
	}
	if in.PageCount() != 4 {
		t.Fatalf("PageCount = %d, want 4", in.PageCount())
	}
}

func TestReadAtOffsets(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	data := patternData(2*PageSize+500, 9)
	in := writeFileT(t, fs, "f", data)
	for _, c := range []struct{ off, n int }{
		{0, 10}, {100, 4096}, {4090, 20}, {4096, 4096}, {8000, 692},
	} {
		got := readFileT(t, fs, in, uint64(c.off), c.n)
		want := data[c.off:min(c.off+c.n, len(data))]
		if !bytes.Equal(got, want) {
			t.Fatalf("read [%d,%d): mismatch", c.off, c.off+c.n)
		}
	}
}

func TestReadPastEOF(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	in := writeFileT(t, fs, "f", patternData(10, 1))
	if got := readFileT(t, fs, in, 10, 5); len(got) != 0 {
		t.Fatalf("read past EOF returned %d bytes", len(got))
	}
	if got := readFileT(t, fs, in, 5, 100); len(got) != 5 {
		t.Fatalf("read crossing EOF returned %d bytes, want 5", len(got))
	}
}

func TestSparseFileHolesReadZero(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	in, _ := fs.Create("sparse")
	if _, err := fs.Write(in, 3*PageSize, []byte("end"), FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	got := readFileT(t, fs, in, 0, 3*PageSize+3)
	for i := 0; i < 3*PageSize; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %d", i, got[i])
		}
	}
	if string(got[3*PageSize:]) != "end" {
		t.Fatalf("tail = %q", got[3*PageSize:])
	}
}

func TestOverwriteCoWReclaimsBlocks(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	free0 := fs.FreeBlocks()
	in := writeFileT(t, fs, "f", patternData(2*PageSize, 1))
	used := free0 - fs.FreeBlocks() // 2 data + maybe log page growth
	for i := 0; i < 10; i++ {
		if _, err := fs.Write(in, 0, patternData(2*PageSize, byte(i)), FlagNone, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	// CoW must not leak: steady-state usage stays bounded (data pages are
	// freed as they are shadowed; log grows by entries only).
	if leak := (free0 - fs.FreeBlocks()) - used; leak > 2 {
		t.Fatalf("overwrites leaked %d blocks", leak)
	}
	if got := readFileT(t, fs, in, 0, 2*PageSize); !bytes.Equal(got, patternData(2*PageSize, 9)) {
		t.Fatal("content after overwrites wrong")
	}
}

func TestPartialPageOverwritePreservesNeighbours(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	base := patternData(PageSize, 1)
	in := writeFileT(t, fs, "f", base)
	if _, err := fs.Write(in, 100, []byte("XYZ"), FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, base...)
	copy(want[100:], "XYZ")
	if got := readFileT(t, fs, in, 0, PageSize); !bytes.Equal(got, want) {
		t.Fatal("partial overwrite corrupted the page")
	}
}

func TestUnalignedWriteSpanningPages(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	in := writeFileT(t, fs, "f", patternData(3*PageSize, 1))
	patch := patternData(PageSize, 200)
	if _, err := fs.Write(in, uint64(PageSize/2), patch, FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	want := patternData(3*PageSize, 1)
	copy(want[PageSize/2:], patch)
	if got := readFileT(t, fs, in, 0, 3*PageSize); !bytes.Equal(got, want) {
		t.Fatal("spanning write corrupted data")
	}
}

func TestWriteEmptyIsNoop(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	in, _ := fs.Create("f")
	off, err := fs.Write(in, 0, nil, FlagNone, obs.SpanContext{})
	if err != nil || off != 0 {
		t.Fatalf("empty write: off=%d err=%v", off, err)
	}
	if in.Size() != 0 {
		t.Fatal("empty write changed size")
	}
}

func TestWriteToDirectoryFails(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	if _, err := fs.Write(fs.Root(), 0, []byte("x"), FlagNone, obs.SpanContext{}); err == nil {
		t.Fatal("writing a directory succeeded")
	}
	if _, err := fs.Read(fs.Root(), 0, make([]byte, 8), obs.SpanContext{}); err == nil {
		t.Fatal("reading a directory succeeded")
	}
}

// --- Namespace ---

func TestCreateLookupDelete(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	in := writeFileT(t, fs, "hello", []byte("world"))
	got, err := fs.Lookup("hello")
	if err != nil || got.Ino() != in.Ino() {
		t.Fatalf("Lookup: %v", err)
	}
	if err := fs.Delete("hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup("hello"); err != ErrNotExist {
		t.Fatalf("Lookup after delete: %v", err)
	}
	if err := fs.Delete("hello"); err != ErrNotExist {
		t.Fatalf("double delete: %v", err)
	}
}

func TestCreateDuplicateName(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	fs.Create("x")
	if _, err := fs.Create("x"); err != ErrExist {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestDeleteFreesAllBlocks(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	free0 := fs.FreeBlocks()
	writeFileT(t, fs, "f", patternData(10*PageSize, 1))
	if err := fs.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if fs.FreeBlocks() != free0 {
		t.Fatalf("delete leaked %d blocks", free0-fs.FreeBlocks())
	}
}

func TestInodeSlotReuse(t *testing.T) {
	t.Parallel()
	// Freed slots must be recycled: with N slots, create/delete cycles well
	// beyond N can only succeed if releases return slots to the pool.
	dev := pmem.New(testDevSize, pmem.ProfileZero)
	fs, err := Mkfs(dev, 8) // slots 2..7 usable
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("cycle-%d", i)
		if _, err := fs.Create(name); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		if err := fs.Delete(name); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
}

func TestManyFiles(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	const n = 200
	for i := 0; i < n; i++ {
		writeFileT(t, fs, fmt.Sprintf("file-%03d", i), patternData(64, byte(i)))
	}
	if got := len(fs.Names()); got != n {
		t.Fatalf("Names() = %d, want %d", got, n)
	}
	for i := 0; i < n; i += 17 {
		in, err := fs.Lookup(fmt.Sprintf("file-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		if got := readFileT(t, fs, in, 0, 64); !bytes.Equal(got, patternData(64, byte(i))) {
			t.Fatalf("file %d content mismatch", i)
		}
	}
}

func TestOutOfInodes(t *testing.T) {
	t.Parallel()
	dev := pmem.New(testDevSize, pmem.ProfileZero)
	fs, err := Mkfs(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	fs.Create("a")
	fs.Create("b")
	if _, err := fs.Create("c"); err == nil {
		t.Fatal("expected out-of-inodes")
	}
}

// --- Log growth & GC ---

func TestLogGrowsAcrossPages(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	in, _ := fs.Create("f")
	// More writes than one log page holds (63 entries), all to distinct
	// pages so no entry dies.
	for i := 0; i < 2*EntriesPerLogPage; i++ {
		if _, err := fs.Write(in, uint64(i)*PageSize, []byte{byte(i)}, FlagNone, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	if in.LogPageCount() < 2 {
		t.Fatalf("log did not grow: %d pages", in.LogPageCount())
	}
	for i := 0; i < 2*EntriesPerLogPage; i++ {
		got := readFileT(t, fs, in, uint64(i)*PageSize, 1)
		if got[0] != byte(i) {
			t.Fatalf("page %d = %d", i, got[0])
		}
	}
}

func TestFastGCReclaimsDeadLogPages(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	in, _ := fs.Create("f")
	// Overwrite the same page many times: old entries die; whole log pages
	// of dead entries must be reclaimed.
	for i := 0; i < 10*EntriesPerLogPage; i++ {
		if _, err := fs.Write(in, 0, []byte{byte(i)}, FlagNone, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := in.LogPageCount(); n > 3 {
		t.Fatalf("fast GC ineffective: %d log pages alive", n)
	}
	if fs.Stats().GCLogPages == 0 {
		t.Fatal("no GC events recorded")
	}
	got := readFileT(t, fs, in, 0, 1)
	if got[0] != byte((10*EntriesPerLogPage-1)&0xFF) {
		t.Fatalf("content after GC = %d", got[0])
	}
}

func TestGCSurvivesRemount(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	in, _ := fs.Create("f")
	for i := 0; i < 5*EntriesPerLogPage; i++ {
		fs.Write(in, 0, []byte{byte(i)}, FlagNone, obs.SpanContext{})
	}
	fs.Unmount()
	fs2, _, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := fs2.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	got := readFileT(t, fs2, in2, 0, 1)
	if got[0] != byte((5*EntriesPerLogPage-1)&0xFF) {
		t.Fatalf("content after GC+remount = %d", got[0])
	}
}

// --- Remount / recovery ---

func TestCleanRemountPreservesEverything(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	data1 := patternData(PageSize+77, 1)
	data2 := patternData(5, 2)
	writeFileT(t, fs, "one", data1)
	writeFileT(t, fs, "two", data2)
	fs.Delete("two")
	writeFileT(t, fs, "three", data2)
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, res, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Error("clean flag lost")
	}
	if len(res.Orphans) != 0 {
		t.Errorf("orphans on clean mount: %v", res.Orphans)
	}
	in, err := fs2.Lookup("one")
	if err != nil {
		t.Fatal(err)
	}
	if got := readFileT(t, fs2, in, 0, len(data1)); !bytes.Equal(got, data1) {
		t.Fatal("data lost across remount")
	}
	if _, err := fs2.Lookup("two"); err != ErrNotExist {
		t.Fatal("deleted file resurrected")
	}
	if in.Size() != uint64(len(data1)) {
		t.Fatalf("size after remount = %d", in.Size())
	}
}

func TestCrashRemountRecoversCommittedWrites(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	data := patternData(2*PageSize, 7)
	writeFileT(t, fs, "f", data)
	// Crash without unmount.
	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	fs2, res, err := Mount(img)
	if err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	if res.Clean {
		t.Error("crashed image reported clean")
	}
	in, err := fs2.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	if got := readFileT(t, fs2, in, 0, len(data)); !bytes.Equal(got, data) {
		t.Fatal("committed write lost after crash")
	}
}

func TestCrashFreeSpaceAccounting(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	writeFileT(t, fs, "keep", patternData(3*PageSize, 1))
	in, _ := fs.Lookup("keep")
	for i := 0; i < 5; i++ { // shadowed blocks must be recovered as free
		fs.Write(in, 0, patternData(3*PageSize, byte(i)), FlagNone, obs.SpanContext{})
	}
	free := fs.FreeBlocks()
	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	fs2, _, err := Mount(img)
	if err != nil {
		t.Fatal(err)
	}
	if fs2.FreeBlocks() < free {
		t.Fatalf("recovery lost free blocks: %d < %d", fs2.FreeBlocks(), free)
	}
}

func TestRecoverySweepCreate(t *testing.T) {
	t.Parallel()
	// Sweep a crash through every persist point of a Create+Write sequence;
	// after recovery the file either exists fully or not at all, and no
	// blocks leak.
	base := pmem.New(testDevSize, pmem.ProfileZero)
	{
		fs, err := Mkfs(base, 64)
		if err != nil {
			t.Fatal(err)
		}
		writeFileT(t, fs, "pre", patternData(PageSize, 9))
		fs.Unmount()
	}
	// Count persist points of the operation.
	probe := base.Clone()
	fsP, _, err := Mount(probe)
	if err != nil {
		t.Fatal(err)
	}
	start := probe.PersistOps()
	writeFileT(t, fsP, "new", patternData(PageSize+10, 4))
	total := probe.PersistOps() - start

	for k := int64(1); k <= total; k++ {
		work := base.Clone()
		fsW, _, err := Mount(work)
		if err != nil {
			t.Fatalf("k=%d: mount: %v", k, err)
		}
		work.SetCrashAfter(work.PersistOps() - work.PersistOps() + preMountOps(work) + k)
		crashed := pmem.RunToCrash(func() {
			in, err := fsW.Create("new")
			if err == nil {
				fsW.Write(in, 0, patternData(PageSize+10, 4), FlagNone, obs.SpanContext{})
			}
		})
		_ = crashed
		img := work.CrashImage(pmem.CrashDropDirty, k)
		fsR, res, err := Mount(img)
		if err != nil {
			t.Fatalf("k=%d: recovery failed: %v", k, err)
		}
		// Invariant 1: pre-existing file intact.
		pre, err := fsR.Lookup("pre")
		if err != nil {
			t.Fatalf("k=%d: pre-existing file lost", k)
		}
		if got := readFileT(t, fsR, pre, 0, PageSize); !bytes.Equal(got, patternData(PageSize, 9)) {
			t.Fatalf("k=%d: pre-existing data corrupted", k)
		}
		// Invariant 2: "new" is atomic per committed entry — if visible, its
		// committed prefix must be readable and self-consistent.
		if in, err := fsR.Lookup("new"); err == nil {
			sz := in.Size()
			got := readFileT(t, fsR, in, 0, int(sz))
			if !bytes.Equal(got, patternData(PageSize+10, 4)[:sz]) {
				t.Fatalf("k=%d: visible file has corrupt content", k)
			}
		}
		_ = res
	}
}

// preMountOps is a helper making the arming arithmetic in sweeps explicit:
// SetCrashAfter counts from "now", so 0 extra ops have happened since mount.
func preMountOps(*pmem.Device) int64 { return 0 }

func TestOrphanInodeReclaimedOnRecovery(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	// Simulate a crash between inode creation and dentry commit by building
	// the state manually: create, then surgically remove the dentry's
	// visibility by crafting a fresh image where only the inode persists.
	// Easiest faithful approach: arm the crash to fire during Create's
	// dentry append.
	free0 := fs.FreeBlocks()
	_ = free0
	startOps := dev.PersistOps()
	_ = startOps
	// Create persists: log page init (1+ points), inode record, dentry
	// entry, tail commit. Crash right after the inode record is persisted.
	fired := false
	for k := int64(1); k < 64 && !fired; k++ {
		img := dev.Clone()
		fsW, _, err := Mount(img)
		if err != nil {
			t.Fatal(err)
		}
		img.SetCrashAfter(k)
		crashed := pmem.RunToCrash(func() { fsW.Create("victim") })
		if !crashed {
			break
		}
		post := img.CrashImage(pmem.CrashDropDirty, 0)
		fsR, res, err := Mount(post)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if _, err := fsR.Lookup("victim"); err == nil {
			continue // dentry committed; not the window we want
		}
		if len(res.Orphans) > 0 {
			fired = true
			// The orphan's resources must be free again: creating many
			// files afterwards must not run out of the orphan's slot.
			if _, err := fsR.Create("replacement"); err != nil {
				t.Fatalf("orphan slot not reusable: %v", err)
			}
		}
	}
	if !fired {
		t.Skip("no crash window produced an orphan (create too atomic); acceptable")
	}
}

// --- Concurrency ---

func TestConcurrentWritersDistinctFiles(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	const writers = 8
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w)
			in, err := fs.Create(name)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 50; i++ {
				if _, err := fs.Write(in, uint64(i)*64, patternData(64, byte(w)), FlagNone, obs.SpanContext{}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		in, err := fs.Lookup(fmt.Sprintf("w%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if in.Size() != 50*64 {
			t.Fatalf("writer %d size = %d", w, in.Size())
		}
	}
}

func TestConcurrentReadersSameFile(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	data := patternData(4*PageSize, 3)
	in := writeFileT(t, fs, "shared", data)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				buf := make([]byte, len(data))
				n, err := fs.Read(in, 0, buf, obs.SpanContext{})
				if err != nil || n != len(data) || !bytes.Equal(buf, data) {
					t.Errorf("concurrent read mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentCreateDelete(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				name := fmt.Sprintf("t%d-%d", w, i)
				in, err := fs.Create(name)
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				fs.Write(in, 0, []byte("data"), FlagNone, obs.SpanContext{})
				if err := fs.Delete(name); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(fs.Names()); got != 0 {
		t.Fatalf("%d names left behind", got)
	}
}

// --- Write hook & releaser ---

func TestWriteHookFires(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var hooks []uint64
	dev := pmem.New(testDevSize, pmem.ProfileZero)
	fs, err := Mkfs(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetWriteHook(func(in *Inode, off uint64, _ PageImages, _ obs.SpanContext) {
		mu.Lock()
		hooks = append(hooks, off)
		mu.Unlock()
	})
	writeFileT(t, fs, "f", patternData(100, 1))
	if len(hooks) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(hooks))
	}
}

type denyReleaser struct{ denied map[uint64]bool }

func (d *denyReleaser) Release(blocks []uint64, free func(block uint64)) {
	for _, b := range blocks {
		if !d.denied[b] {
			free(b)
		}
	}
}

func TestReleaserVetoKeepsBlock(t *testing.T) {
	t.Parallel()
	dr := &denyReleaser{denied: map[uint64]bool{}}
	dev := pmem.New(testDevSize, pmem.ProfileZero)
	fs, err := Mkfs(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetReleaser(dr)
	in, _ := fs.Create("f")
	fs.Write(in, 0, patternData(PageSize, 1), FlagNone, obs.SpanContext{})
	block, _, _ := in.Mapping(0)
	dr.denied[block] = true
	free := fs.FreeBlocks()
	fs.Write(in, 0, patternData(PageSize, 2), FlagNone, obs.SpanContext{}) // shadows denied block
	// One page was allocated, none freed (the shadowed one was vetoed).
	if fs.FreeBlocks() != free-1 {
		t.Fatalf("free accounting with veto: %d -> %d", free, fs.FreeBlocks())
	}
	if fs.Stats().BlocksSkipped != 1 {
		t.Fatalf("BlocksSkipped = %d", fs.Stats().BlocksSkipped)
	}
}

// --- Property: random op stream matches an in-memory model ---

func TestPropertyFSMatchesModel(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := pmem.New(testDevSize, pmem.ProfileZero)
		fs, err := Mkfs(dev, 256)
		if err != nil {
			return false
		}
		model := map[string][]byte{}
		handles := map[string]*Inode{}
		for i := 0; i < 120; i++ {
			name := fmt.Sprintf("f%d", rng.Intn(8))
			switch rng.Intn(5) {
			case 0, 1: // write
				in, ok := handles[name]
				if !ok {
					in, err = fs.Create(name)
					if err == ErrExist {
						continue
					}
					if err != nil {
						return false
					}
					handles[name] = in
					model[name] = nil
				}
				off := rng.Intn(3 * PageSize)
				n := rng.Intn(2*PageSize) + 1
				data := patternData(n, byte(rng.Intn(256)))
				if _, err := fs.Write(in, uint64(off), data, FlagNone, obs.SpanContext{}); err != nil {
					return false
				}
				m := model[name]
				if len(m) < off+n {
					nm := make([]byte, off+n)
					copy(nm, m)
					m = nm
				}
				copy(m[off:], data)
				model[name] = m
			case 2: // read & verify
				in, ok := handles[name]
				if !ok {
					continue
				}
				m := model[name]
				buf := make([]byte, len(m)+64)
				n, err := fs.Read(in, 0, buf, obs.SpanContext{})
				if err != nil {
					return false
				}
				if n != len(m) || !bytes.Equal(buf[:n], m) {
					return false
				}
			case 3: // delete
				if _, ok := handles[name]; !ok {
					continue
				}
				if err := fs.Delete(name); err != nil {
					return false
				}
				delete(handles, name)
				delete(model, name)
			case 4: // remount (clean) and rebuild handles
				if err := fs.Unmount(); err != nil {
					return false
				}
				fs, _, err = Mount(dev)
				if err != nil {
					return false
				}
				handles = map[string]*Inode{}
				for n := range model {
					in, err := fs.Lookup(n)
					if err != nil {
						return false
					}
					handles[n] = in
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// --- Additional log-boundary and entry-slot tests ---

func TestLogPageBoundaryExactFill(t *testing.T) {
	t.Parallel()
	// Exactly 63 entries fill a log page; the 64th append must allocate
	// and link a second page, with the tail pointing into it.
	_, fs := mkfsT(t)
	in, _ := fs.Create("f")
	for i := 0; i < EntriesPerLogPage; i++ {
		if _, err := fs.Write(in, uint64(i)*PageSize, []byte{byte(i)}, FlagNone, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := in.LogPageCount(); n != 1 {
		t.Fatalf("pages after exact fill = %d, want 1", n)
	}
	if _, err := fs.Write(in, uint64(EntriesPerLogPage)*PageSize, []byte{0xFF}, FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if n := in.LogPageCount(); n != 2 {
		t.Fatalf("pages after overflow = %d, want 2", n)
	}
	for i := 0; i <= EntriesPerLogPage; i++ {
		got := readFileT(t, fs, in, uint64(i)*PageSize, 1)
		want := byte(i)
		if i == EntriesPerLogPage {
			want = 0xFF
		}
		if got[0] != want {
			t.Fatalf("page %d = %d, want %d", i, got[0], want)
		}
	}
	if err := fs.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemountAtLogPageBoundary(t *testing.T) {
	t.Parallel()
	// Crash-remount with the committed tail sitting exactly at the page
	// boundary slot (the walkLog edge case).
	dev, fs := mkfsT(t)
	in, _ := fs.Create("f")
	for i := 0; i < EntriesPerLogPage; i++ {
		fs.Write(in, uint64(i)*PageSize, []byte{byte(i)}, FlagNone, obs.SpanContext{})
	}
	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	fs2, _, err := Mount(img)
	if err != nil {
		t.Fatal(err)
	}
	in2, _ := fs2.Lookup("f")
	if in2.PageCount() != EntriesPerLogPage {
		t.Fatalf("pages = %d", in2.PageCount())
	}
	if err := fs2.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteEntrySeqMonotoneAcrossRemount(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	in := writeFileT(t, fs, "f", patternData(64, 1))
	_, off1, _ := in.Mapping(0)
	we1, err := ReadWriteEntry(dev, off1)
	if err != nil {
		t.Fatal(err)
	}
	fs.Unmount()
	fs2, _, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	in2, _ := fs2.Lookup("f")
	fs2.Write(in2, 0, patternData(64, 2), FlagNone, obs.SpanContext{})
	_, off2, _ := in2.Mapping(0)
	we2, err := ReadWriteEntry(dev, off2)
	if err != nil {
		t.Fatal(err)
	}
	if we2.Seq <= we1.Seq {
		t.Fatalf("seq not monotone across remount: %d then %d", we1.Seq, we2.Seq)
	}
}

func TestInodeTimesRecoveredFromLog(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	in := writeFileT(t, fs, "f", patternData(64, 1))
	_, mt1 := in.Times()
	fs.Write(in, 0, patternData(64, 2), FlagNone, obs.SpanContext{})
	_, mt2 := in.Times()
	if mt2 <= mt1 {
		t.Fatalf("mtime not advancing: %d then %d", mt1, mt2)
	}
	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	fs2, _, err := Mount(img)
	if err != nil {
		t.Fatal(err)
	}
	in2, _ := fs2.Lookup("f")
	if _, mt := in2.Times(); mt != mt2 {
		t.Fatalf("mtime after recovery = %d, want %d", mt, mt2)
	}
}
