package nova

import (
	"bytes"
	"fmt"
	"testing"

	"denova/internal/obs"
	"denova/internal/pmem"
)

// buildSparseLog interleaves long-lived single-page entries (pages 1..N)
// with bursts of churn on page 0. Every log page ends up with a few live
// keeper entries surrounded by dead churn entries — pages fast GC can
// never reclaim but thorough GC compacts.
func buildSparseLog(t testing.TB, fs *FS, keepers int) (*Inode, [][]byte) {
	t.Helper()
	in, err := fs.Create("sparse")
	if err != nil {
		t.Fatal(err)
	}
	current := make([][]byte, keepers+1)
	for pg := 1; pg <= keepers; pg++ {
		current[pg] = patternData(PageSize, byte(pg))
		if _, err := fs.Write(in, uint64(pg)*PageSize, current[pg], FlagNone, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 5; c++ {
			current[0] = patternData(PageSize, byte(pg+c+100))
			if _, err := fs.Write(in, 0, current[0], FlagNone, obs.SpanContext{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return in, current
}

func verifySparse(t testing.TB, fs *FS, in *Inode, current [][]byte) {
	t.Helper()
	for pg := range current {
		got := readFileT(t, fs, in, uint64(pg)*PageSize, PageSize)
		if !bytes.Equal(got, current[pg]) {
			t.Fatalf("page %d content wrong after GC", pg)
		}
	}
}

func TestThoroughGCCompactsSparseLog(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	in, current := buildSparseLog(t, fs, 200)
	if fs.Stats().GCThorough == 0 {
		t.Fatal("thorough GC never triggered")
	}
	// Without compaction the chain would hold the full 1200-entry history
	// (~20 pages); the GC sawtooth keeps it well below that, and an
	// explicit pass compacts to the ~200 live entries (~4 pages + tail).
	if n := in.LogPageCount(); n >= 16 {
		t.Fatalf("log has %d pages; automatic thorough GC ineffective", n)
	}
	fs.ForceThoroughGC(in)
	if n := in.LogPageCount(); n > 7 {
		t.Fatalf("log still has %d pages after explicit compaction", n)
	}
	verifySparse(t, fs, in, current)
	if err := fs.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestThoroughGCSurvivesRemount(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	in, current := buildSparseLog(t, fs, 200)
	_ = in
	fs.Unmount()
	fs2, _, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := fs2.Lookup("sparse")
	if err != nil {
		t.Fatal(err)
	}
	verifySparse(t, fs2, in2, current)
	if err := fs2.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestThoroughGCSurvivesCrash(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	in, current := buildSparseLog(t, fs, 200)
	_ = in
	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	fs2, _, err := Mount(img)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := fs2.Lookup("sparse")
	if err != nil {
		t.Fatal(err)
	}
	verifySparse(t, fs2, in2, current)
	if err := fs2.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestThoroughGCPreservesSizeFromTrailingHole(t *testing.T) {
	t.Parallel()
	// A file whose size comes from a grow-truncate (trailing hole) must
	// keep that size across a compaction that drops the truncate entry's
	// original log page.
	_, fs := mkfsT(t)
	in, err := fs.Create("hole")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(in, 0, patternData(PageSize, 1), FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	const holeSize = 50 * PageSize
	if err := fs.Truncate(in, holeSize, FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	// Churn page 0 enough to trigger thorough GC.
	for i := 0; i < 6*EntriesPerLogPage; i++ {
		if _, err := fs.Write(in, PageSize, patternData(PageSize, byte(i)), FlagNone, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	fs.MaybeThoroughGC(in)
	if in.Size() != holeSize {
		t.Fatalf("size = %d, want %d (lost with the old chain?)", in.Size(), holeSize)
	}
	if err := fs.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestThoroughGCCrashSweep(t *testing.T) {
	t.Parallel()
	// Crash at every persist point of one explicit compaction: after
	// recovery the file must be intact whether the head swap committed or
	// not, and fsck must pass.
	build := func() *pmem.Device {
		dev := pmem.New(testDevSize, pmem.ProfileZero)
		fs, err := Mkfs(dev, 64)
		if err != nil {
			t.Fatal(err)
		}
		in, err := fs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		for pg := 0; pg < 40; pg++ {
			fs.Write(in, uint64(pg)*PageSize, patternData(PageSize, byte(pg)), FlagNone, obs.SpanContext{})
		}
		// Kill most entries but keep one long-lived mapping per stride.
		for r := 0; r < 2; r++ {
			for pg := 0; pg < 40; pg++ {
				if pg%8 == 0 {
					continue
				}
				fs.Write(in, uint64(pg)*PageSize, patternData(PageSize, byte(pg+50)), FlagNone, obs.SpanContext{})
			}
		}
		fs.Unmount()
		return dev
	}
	expect := func() [][]byte {
		out := make([][]byte, 40)
		for pg := 0; pg < 40; pg++ {
			if pg%8 == 0 {
				out[pg] = patternData(PageSize, byte(pg))
			} else {
				out[pg] = patternData(PageSize, byte(pg+50))
			}
		}
		return out
	}()

	sweepMount(t, build(), func(fs *FS) error {
		in, err := fs.Lookup("f")
		if err == nil && fs.ForceThoroughGC(in) == 0 {
			err = fmt.Errorf("compaction was a no-op at this shape")
		}
		return err
	}, func(fs *FS, _ *ScanResult) error {
		in, err := fs.Lookup("f")
		if err != nil {
			return fmt.Errorf("file lost")
		}
		for pg, want := range expect {
			if got, err := readFile(fs, in, uint64(pg)*PageSize, PageSize); err != nil || !bytes.Equal(got, want) {
				return fmt.Errorf("page %d corrupted (%v)", pg, err)
			}
		}
		return fs.Fsck(nil)
	})
}

func TestThoroughGCReenqueuesDedupeNeeded(t *testing.T) {
	t.Parallel()
	var enqueued []uint64
	dev := pmem.New(testDevSize, pmem.ProfileZero)
	fs, err := Mkfs(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetWriteHook(func(in *Inode, off uint64, _ PageImages, _ obs.SpanContext) {
		enqueued = append(enqueued, off)
	})
	in, _ := fs.Create("f")
	// A long-lived entry still awaiting dedup…
	fs.Write(in, 0, patternData(PageSize, 1), FlagNeeded, obs.SpanContext{})
	// …buried under churn that triggers compaction.
	for i := 0; i < 6*EntriesPerLogPage; i++ {
		fs.Write(in, PageSize, patternData(PageSize, byte(i)), FlagNone, obs.SpanContext{})
	}
	before := len(enqueued)
	n := fs.ForceThoroughGC(in)
	if n == 0 {
		t.Skip("no compaction at this shape")
	}
	if len(enqueued) == before {
		t.Fatal("dedupe_needed entry not re-enqueued after compaction")
	}
	newOff := enqueued[len(enqueued)-1]
	we, err := ReadWriteEntry(dev, newOff)
	if err != nil || we.DedupeFlag != FlagNeeded {
		t.Fatalf("re-enqueued entry bad: %+v err=%v", we, err)
	}
}

func TestFastGCVsThoroughInterplay(t *testing.T) {
	t.Parallel()
	// Mixed churn across several files with verification, exercising both
	// GC tiers together.
	_, fs := mkfsT(t)
	for f := 0; f < 4; f++ {
		in, err := fs.Create(fmt.Sprintf("f%d", f))
		if err != nil {
			t.Fatal(err)
		}
		for pg := 0; pg < 50; pg++ {
			fs.Write(in, uint64(pg)*PageSize, patternData(64, byte(pg)), FlagNone, obs.SpanContext{})
		}
		for r := 0; r < 4; r++ {
			for pg := 0; pg < 50; pg++ {
				if pg%7 == 0 {
					continue
				}
				fs.Write(in, uint64(pg)*PageSize, patternData(64, byte(pg+r)), FlagNone, obs.SpanContext{})
			}
		}
	}
	if err := fs.Fsck(nil); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.GCLogPages == 0 {
		t.Fatal("no GC activity at all under heavy churn")
	}
}
