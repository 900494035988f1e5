package nova

import (
	"bytes"
	"fmt"
	"testing"

	"denova/internal/obs"
	"denova/internal/pmem"
)

func TestTruncateShrink(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	data := patternData(3*PageSize+100, 1)
	in := writeFileT(t, fs, "f", data)
	free := fs.FreeBlocks()
	if err := fs.Truncate(in, PageSize+50, FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if in.Size() != PageSize+50 {
		t.Fatalf("size = %d", in.Size())
	}
	// Pages 2 and 3 dropped: two blocks back.
	if got := fs.FreeBlocks() - free; got != 2 {
		t.Fatalf("freed %d blocks, want 2", got)
	}
	got := readFileT(t, fs, in, 0, 4*PageSize)
	if !bytes.Equal(got, data[:PageSize+50]) {
		t.Fatal("content after shrink wrong")
	}
	if err := fs.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateGrowReadsZeros(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	in := writeFileT(t, fs, "f", patternData(100, 2))
	if err := fs.Truncate(in, 2*PageSize, FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	got := readFileT(t, fs, in, 0, 2*PageSize)
	if len(got) != 2*PageSize {
		t.Fatalf("read %d bytes", len(got))
	}
	for i := 100; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %d", i, got[i])
		}
	}
}

func TestTruncateToZeroAndRewrite(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	in := writeFileT(t, fs, "f", patternData(2*PageSize, 3))
	free0 := fs.FreeBlocks()
	if err := fs.Truncate(in, 0, FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if in.Size() != 0 || in.PageCount() != 0 {
		t.Fatalf("size=%d pages=%d after truncate to zero", in.Size(), in.PageCount())
	}
	if fs.FreeBlocks() != free0+2 {
		t.Fatalf("blocks not reclaimed: %d vs %d", fs.FreeBlocks(), free0+2)
	}
	fresh := patternData(PageSize, 4)
	if _, err := fs.Write(in, 0, fresh, FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFileT(t, fs, in, 0, PageSize), fresh) {
		t.Fatal("rewrite after truncate wrong")
	}
}

func TestTruncateNoopAndDirRejected(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	in := writeFileT(t, fs, "f", patternData(10, 5))
	if err := fs.Truncate(in, 10, FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(fs.Root(), 0, FlagNone, obs.SpanContext{}); err == nil {
		t.Fatal("truncated a directory")
	}
}

func TestTruncateSurvivesRemount(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	data := patternData(3*PageSize, 6)
	in := writeFileT(t, fs, "f", data)
	fs.Truncate(in, PageSize, FlagNone, obs.SpanContext{})
	fs.Unmount()
	fs2, _, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := fs2.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	if in2.Size() != PageSize {
		t.Fatalf("size after remount = %d", in2.Size())
	}
	if !bytes.Equal(readFileT(t, fs2, in2, 0, 2*PageSize), data[:PageSize]) {
		t.Fatal("content after remount wrong")
	}
	if err := fs2.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateThenWriteThenCrash(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	data := patternData(3*PageSize, 7)
	in := writeFileT(t, fs, "f", data)
	fs.Truncate(in, PageSize, FlagNone, obs.SpanContext{})
	patch := patternData(PageSize, 8)
	fs.Write(in, 4*PageSize, patch, FlagNone, obs.SpanContext{}) // write past the hole
	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	fs2, _, err := Mount(img)
	if err != nil {
		t.Fatal(err)
	}
	in2, _ := fs2.Lookup("f")
	if in2.Size() != 5*PageSize {
		t.Fatalf("size = %d, want %d", in2.Size(), 5*PageSize)
	}
	got := readFileT(t, fs2, in2, 0, 5*PageSize)
	want := make([]byte, 5*PageSize)
	copy(want, data[:PageSize])
	copy(want[4*PageSize:], patch)
	if !bytes.Equal(got, want) {
		t.Fatal("truncate+write sequence not replayed correctly")
	}
	if err := fs2.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateCrashSweep(t *testing.T) {
	t.Parallel()
	// Crash at every persist point of a shrinking truncate: the file is
	// atomically either the old or the new size, content intact either way.
	base := pmem.New(testDevSize, pmem.ProfileZero)
	{
		fs, err := Mkfs(base, 64)
		if err != nil {
			t.Fatal(err)
		}
		writeFileT(t, fs, "f", patternData(4*PageSize, 9))
		fs.Unmount()
	}
	data := patternData(4*PageSize, 9)
	sweepMount(t, base, func(fs *FS) error {
		in, err := fs.Lookup("f")
		if err != nil {
			return err
		}
		return fs.Truncate(in, PageSize, FlagNone, obs.SpanContext{})
	}, func(fs *FS, _ *ScanResult) error {
		in, err := fs.Lookup("f")
		if err != nil {
			return fmt.Errorf("file lost")
		}
		sz := in.Size()
		if sz != PageSize && sz != 4*PageSize {
			return fmt.Errorf("size %d is neither old nor new", sz)
		}
		if err := checkContent(fs, "f", data[:sz]); err != nil {
			return err
		}
		return fs.Fsck(nil)
	})
}

func TestFsckCleanOnHealthyFS(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	for i := 0; i < 20; i++ {
		writeFileT(t, fs, fmt.Sprintf("f%d", i), patternData(PageSize*(i%3+1), byte(i)))
	}
	fs.Delete("f3")
	in, _ := fs.Lookup("f4")
	fs.Write(in, 0, patternData(PageSize, 99), FlagNone, obs.SpanContext{})
	if err := fs.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestFsckDetectsLeak(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	writeFileT(t, fs, "f", patternData(PageSize, 1))
	// Leak a block: allocate and drop it.
	if _, err := fs.alloc.Alloc(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsck(nil); err == nil {
		t.Fatal("fsck missed a leaked block")
	}
}

func TestFsckDetectsRadixCorruption(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	in := writeFileT(t, fs, "f", patternData(PageSize, 1))
	// Corrupt the DRAM radix: point page 0 at a bogus block.
	in.mu.Lock()
	v, _ := in.tree.Lookup(0)
	v.Block++
	in.tree.Insert(0, v)
	in.mu.Unlock()
	if err := fs.Fsck(nil); err == nil {
		t.Fatal("fsck missed radix/log divergence")
	}
}

// TestFastGCPreservesTruncateEntry is the regression test for a replay
// corruption: fast GC tracked only write-entry references, so a log page
// whose write entries were all dead could be unlinked even though it still
// held a truncate entry. Earlier surviving write entries then resurrected
// the truncated mappings at replay — pointing file pages at blocks long
// since freed. Truncate entries now pin their page until thorough GC
// rewrites the chain.
func TestFastGCPreservesTruncateEntry(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	in, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	// Log page 1, slot 0: a two-page write. The truncate below kills its
	// pg 1 but pg 0 keeps the entry (and with it the page) alive — exactly
	// the "earlier surviving entry" whose pg 1 a lost truncate entry would
	// resurrect.
	if _, err := fs.Write(in, 0, patternData(2*PageSize, 1), FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	// Slots 1..62: self-shadowing writes to pg 3 fill page 1.
	for i := 0; i < EntriesPerLogPage-1; i++ {
		if _, err := fs.Write(in, 3*PageSize, patternData(PageSize, byte(i)), FlagNone, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	// Log page 2, slot 0: a write to pg 2; slot 1: the truncate, killing
	// pg 1 (page-1 entry), pg 2 and pg 3 (page-2/page-1 entries). Page 2's
	// only write entry is now dead.
	if _, err := fs.Write(in, 2*PageSize, patternData(PageSize, 9), FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(in, PageSize, FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	// Slots 2..62 of page 2: self-shadowing writes to pg 4; then one more
	// write moves the tail to page 3 and kills page 2's last write ref.
	// Without the truncate pin, page 2 (all write refs dead, no longer the
	// tail) is fast-GC'd here and the truncate entry is lost.
	for i := 0; i < EntriesPerLogPage-2; i++ {
		if _, err := fs.Write(in, 4*PageSize, patternData(PageSize, byte(i)), FlagNone, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Write(in, 4*PageSize, patternData(PageSize, 77), FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}

	// The live fsck replays the committed log against the radix: a lost
	// truncate entry resurrects pg 1 and pg 3 in the replay.
	if err := fs.Fsck(nil); err != nil {
		t.Fatalf("fsck: %v", err)
	}
	// Remount a clone: recovery replays the same log. pg 1 and pg 3 must
	// stay holes (zeros), not point at freed (and by now reusable) blocks.
	rec, _, err := Mount(dev.Clone())
	if err != nil {
		t.Fatal(err)
	}
	rin, err := rec.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, pg := range []uint64{1, 3} {
		if _, _, ok := rin.Mapping(pg); ok {
			t.Fatalf("truncated pg %d resurrected by replay after fast GC", pg)
		}
		got := readFileT(t, rec, rin, pg*PageSize, PageSize)
		for i, b := range got {
			if b != 0 {
				t.Fatalf("pg %d byte %d = %#x, want 0 (hole)", pg, i, b)
			}
		}
	}
	if err := rec.Fsck(nil); err != nil {
		t.Fatalf("fsck after remount: %v", err)
	}
}
