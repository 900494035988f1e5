package denova

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"denova/internal/pmem"
)

// Crash battery for the split write path. The staged fast path keeps
// unsynced writes in DRAM and commits them with one batched relink (a
// single atomic tail store), so the whole crash story reduces to two legal
// post-recovery states: exactly the synced content, or exactly the synced
// content plus the whole staged batch. Anything in between — a partial
// batch, a torn entry, a size without data — is a bug.

const stagingTestCfgPages = 8

func stagingCfg() Config {
	return Config{
		Mode:     ModeImmediate,
		NoDaemon: true,
		Staging:  StagingConfig{MaxPages: stagingTestCfgPages},
	}
}

// stagingCrashRun builds the deterministic workload on a fresh device:
// a synced base, then staged appends, then the Sync under test. Returns
// after Sync (or after a crash interrupts it).
func stagingCrashRun(t *testing.T, dev *Device, base, staged []byte) {
	t.Helper()
	fs, err := Mkfs(dev, stagingCfg())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Three staged appends, fewer than MaxPages total so no auto-flush:
	// they stay in DRAM until the final Sync relinks them as one batch.
	third := len(staged) / 3
	for i, chunk := range [][]byte{staged[:third], staged[third : 2*third], staged[2*third:]} {
		off := int64(len(base) + i*third)
		if _, err := f.WriteAt(chunk, off); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestStagingCrashSweep crashes at every persist point of the relink
// commit and verifies the two-state oracle after recovery.
func TestStagingCrashSweep(t *testing.T) {
	base := npages(1, 2)
	staged := npages(3, 4, 5)
	full := append(append([]byte(nil), base...), staged...)

	// Probe run: learn where the final Sync's persist points lie.
	probe := NewDevice(testDevSize, ProfileZero)
	fs, err := Mkfs(probe, stagingCfg())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	third := len(staged) / 3
	for i, chunk := range [][]byte{staged[:third], staged[third : 2*third], staged[2*third:]} {
		if _, err := f.WriteAt(chunk, int64(len(base)+i*third)); err != nil {
			t.Fatal(err)
		}
	}
	preSync := probe.PersistOps()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	total := probe.PersistOps()
	if total <= preSync {
		t.Fatalf("sync produced no persist points (%d -> %d): staging not exercised", preSync, total)
	}

	sawBase, sawFull := false, false
	for k := preSync + 1; k <= total; k++ {
		dev := NewDevice(testDevSize, ProfileZero)
		dev.SetCrashAfter(k)
		crashed := pmem.RunToCrash(func() { stagingCrashRun(t, dev, base, staged) })
		img := dev.CrashImage(pmem.CrashDropDirty, k)
		fs2, info, err := Mount(img, stagingCfg())
		if err != nil {
			t.Fatalf("k=%d: recovery mount: %v", k, err)
		}
		if crashed && info.Clean {
			t.Fatalf("k=%d: crash not detected", k)
		}
		g, err := fs2.Open("f")
		if err != nil {
			t.Fatalf("k=%d: open: %v", k, err)
		}
		got := readAll(t, g)
		switch {
		case bytes.Equal(got, base):
			sawBase = true
		case bytes.Equal(got, full):
			sawFull = true
		default:
			t.Fatalf("k=%d: recovered %d bytes — neither base (%d) nor base+staged (%d): partial relink visible",
				k, len(got), len(base), len(full))
		}
		if err := fs2.Fsck(); err != nil {
			t.Fatalf("k=%d: fsck: %v", k, err)
		}
		// The recovered FS must keep working on the same file.
		if _, err := g.WriteAt(npages(9), 0); err != nil {
			t.Fatalf("k=%d: post-recovery write: %v", k, err)
		}
		if err := g.Sync(); err != nil {
			t.Fatalf("k=%d: post-recovery sync: %v", k, err)
		}
		fs2.Unmount()
	}
	// The sweep must witness both sides of the commit point; otherwise the
	// oracle tested nothing.
	if !sawBase || !sawFull {
		t.Fatalf("sweep never saw both states (base=%v full=%v): commit point not crossed", sawBase, sawFull)
	}
}

// TestStagingCrashLosesNothingSynced: a crash with data staged but Sync
// never called recovers exactly the synced prefix — and the staged bytes
// are cleanly absent, not torn in.
func TestStagingCrashLosesOnlyUnsynced(t *testing.T) {
	base := npages(1, 2)
	dev, fs := mkFS(t, stagingCfg())
	f := writeAll(t, fs, "f", base)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(npages(7, 8), int64(len(base))); err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len(base)+2*4096) {
		t.Fatalf("staged size = %d", f.Size())
	}
	fs.UnmountDirty()
	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	fs2, info, err := Mount(img, stagingCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	if info.Clean {
		t.Fatal("dirty crash not detected")
	}
	g, err := fs2.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAll(t, g), base) {
		t.Fatal("recovered content is not exactly the synced base")
	}
	if err := fs2.Fsck(); err != nil {
		t.Fatalf("fsck: %v", err)
	}
}

// TestHandleStableAcrossCrashRecovery: handles are inode identity, so a
// handle issued before a crash keeps resolving after dirty-crash recovery,
// while a handle to a file deleted before the crash goes stale.
func TestHandleStableAcrossCrashRecovery(t *testing.T) {
	base := npages(4)
	dev, fs := mkFS(t, stagingCfg())
	f := writeAll(t, fs, "keep", base)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	h := f.Handle()
	d := writeAll(t, fs, "gone", npages(5))
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	hGone := d.Handle()
	if err := fs.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	fs.UnmountDirty()

	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	fs2, _, err := Mount(img, stagingCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	g, err := fs2.FileByHandle(h)
	if err != nil {
		t.Fatalf("surviving handle stale after crash recovery: %v", err)
	}
	if !bytes.Equal(readAll(t, g), base) {
		t.Fatal("handle resolved to wrong content after recovery")
	}
	if _, err := fs2.FileByHandle(hGone); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("deleted file's handle = %v, want ErrStaleHandle", err)
	}
}

// TestStagingMaxDelayFlushes: with MaxDelay set and no Sync, the background
// flusher alone makes staged writes durable — a drop-dirty crash image taken
// once nothing is staged reads back byte-exact — and Unmount joins it.
func TestStagingMaxDelayFlushes(t *testing.T) {
	cfg := Config{Staging: StagingConfig{MaxPages: 1024, MaxDelay: 5 * time.Millisecond}}
	before := runtime.NumGoroutine()
	dev, fs := mkFS(t, cfg)
	want := append(npages(1, 2, 3), page(4)[:100]...)
	f := writeAll(t, fs, "f", want)
	deadline := time.Now().Add(2 * time.Second)
	for f.in.StagedPages() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pages still staged after 2s with MaxDelay 5ms", f.in.StagedPages())
		}
		time.Sleep(time.Millisecond)
	}

	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	fs2, _, err := Mount(img, Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := fs2.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, g); !bytes.Equal(got, want) {
		t.Fatalf("crash image reads %d bytes that differ from the %d written", len(got), len(want))
	}
	if err := fs2.Unmount(); err != nil {
		t.Fatal(err)
	}

	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Unmount, %d before Mkfs", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
