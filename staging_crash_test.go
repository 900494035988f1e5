package denova

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
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

// stagingCrashSetup builds the deterministic workload on a fresh device —
// a synced base, then staged appends — and returns the device with the
// Sync under test.
func stagingCrashSetup(base, staged []byte) (*Device, func() error, error) {
	dev := NewDevice(testDevSize, ProfileZero)
	fs, err := Mkfs(dev, stagingCfg())
	if err != nil {
		return nil, nil, err
	}
	f, err := fs.Create("f")
	if err != nil {
		return nil, nil, err
	}
	if _, err := f.WriteAt(base, 0); err != nil {
		return nil, nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, nil, err
	}
	// Three staged appends, fewer than MaxPages total so no auto-flush:
	// they stay in DRAM until the final Sync relinks them as one batch.
	third := len(staged) / 3
	for i, chunk := range [][]byte{staged[:third], staged[third : 2*third], staged[2*third:]} {
		if _, err := f.WriteAt(chunk, int64(len(base)+i*third)); err != nil {
			return nil, nil, err
		}
	}
	return dev, f.Sync, nil
}

// TestStagingCrashSweep crashes at every persist point of the relink
// commit and verifies the two-state oracle after recovery.
func TestStagingCrashSweep(t *testing.T) {
	base := npages(1, 2)
	staged := npages(3, 4, 5)
	full := append(append([]byte(nil), base...), staged...)

	var sawBase, sawFull atomic.Bool
	res, err := pmem.Sweep(func() (*Device, func() error, error) { return stagingCrashSetup(base, staged) },
		func(img *Device, _ int64) error {
			fs2, info, err := Mount(img, stagingCfg())
			if err != nil {
				return fmt.Errorf("recovery mount: %v", err)
			}
			if info.Clean {
				return fmt.Errorf("crash not detected")
			}
			g, err := fs2.Open("f")
			if err != nil {
				return fmt.Errorf("open: %v", err)
			}
			got := make([]byte, g.Size())
			n, err := g.ReadAt(got, 0)
			switch got = got[:n]; {
			case err != nil:
				return err
			case bytes.Equal(got, base):
				sawBase.Store(true)
			case bytes.Equal(got, full):
				sawFull.Store(true)
			default:
				return fmt.Errorf("recovered %d bytes — neither base (%d) nor base+staged (%d): partial relink visible",
					len(got), len(base), len(full))
			}
			if err := fs2.Fsck(); err != nil {
				return fmt.Errorf("fsck: %v", err)
			}
			// The recovered FS must keep working on the same file.
			if _, err := g.WriteAt(npages(9), 0); err != nil {
				return fmt.Errorf("post-recovery write: %v", err)
			}
			if err := g.Sync(); err != nil {
				return fmt.Errorf("post-recovery sync: %v", err)
			}
			fs2.Unmount()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d persist points, %d crashed, %d images checked", res.Total, res.Points, res.Images)
	// The sweep must witness both sides of the commit point; otherwise the
	// oracle tested nothing.
	if !sawBase.Load() || !sawFull.Load() {
		t.Fatalf("sweep never saw both states (base=%v full=%v): commit point not crossed", sawBase.Load(), sawFull.Load())
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
