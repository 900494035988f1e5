package denova

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"denova/internal/fact"
	"denova/internal/pmem"
)

const testDevSize = 64 << 20

func mkFS(t *testing.T, cfg Config) (*Device, *FS) {
	t.Helper()
	dev := NewDevice(testDevSize, ProfileZero)
	fs, err := Mkfs(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev, fs
}

func page(seed byte) []byte {
	p := make([]byte, 4096)
	for i := range p {
		p[i] = byte(i)*13 + seed
	}
	return p
}

func npages(seeds ...byte) []byte {
	var out []byte
	for _, s := range seeds {
		out = append(out, page(s)...)
	}
	return out
}

func writeAll(t *testing.T, fs *FS, name string, data []byte) *File {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.WriteAt(data, 0); err != nil || n != len(data) {
		t.Fatalf("WriteAt: n=%d err=%v", n, err)
	}
	return f
}

func readAll(t *testing.T, f *File) []byte {
	t.Helper()
	buf := make([]byte, f.Size())
	n, err := f.ReadAt(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

func TestModeStrings(t *testing.T) {
	cases := map[Mode]string{
		ModeNone:      "nova-baseline",
		ModeInline:    "denova-inline",
		ModeImmediate: "denova-immediate",
		ModeDelayed:   "denova-delayed",
		Mode(9):       "mode(9)",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeNone})
	data := npages(1, 2, 3)
	f := writeAll(t, fs, "f", data)
	if got := readAll(t, f); !bytes.Equal(got, data) {
		t.Fatal("round trip failed")
	}
	st := fs.Stats()
	if st.Space.Savings() != 0 {
		t.Fatal("baseline reported savings")
	}
}

func TestImmediateModeDedupsAndSaves(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeImmediate})
	data := npages(1, 2, 3)
	a := writeAll(t, fs, "a", data)
	b := writeAll(t, fs, "b", data)
	fs.Sync()
	st := fs.Stats()
	if st.Space.LogicalPages != 6 || st.Space.PhysicalPages != 3 {
		t.Fatalf("space = %+v", st.Space)
	}
	if got := st.Space.Savings(); got < 0.49 || got > 0.51 {
		t.Fatalf("savings = %v, want 0.5", got)
	}
	if !bytes.Equal(readAll(t, a), data) || !bytes.Equal(readAll(t, b), data) {
		t.Fatal("content damaged")
	}
	if err := fs.CheckFACTInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInlineModeDedups(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeInline})
	data := npages(4, 4, 5)
	f := writeAll(t, fs, "f", data)
	st := fs.Stats()
	if st.Space.LogicalPages != 3 || st.Space.PhysicalPages != 2 {
		t.Fatalf("space = %+v", st.Space)
	}
	if !bytes.Equal(readAll(t, f), data) {
		t.Fatal("content damaged")
	}
	if fs.StatsSnapshot().Queue.Len != 0 {
		t.Fatal("inline mode enqueued DWQ work")
	}
}

func TestDelayedModeEventuallyDedups(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeDelayed, DelayInterval: 5 * time.Millisecond, DelayBatch: 10})
	data := npages(7)
	writeAll(t, fs, "a", data)
	writeAll(t, fs, "b", data)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := fs.Stats()
		if st.Dedup.PagesDuplicate >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delayed daemon never deduplicated")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestOpenMissingAndRemove(t *testing.T) {
	_, fs := mkFS(t, Config{})
	if _, err := fs.Open("nope"); err != ErrNotFound {
		t.Fatalf("Open missing: %v", err)
	}
	writeAll(t, fs, "f", page(1))
	if _, err := fs.Create("f"); err != ErrExists {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("f"); err != ErrNotFound {
		t.Fatalf("double remove: %v", err)
	}
}

func TestNegativeOffsets(t *testing.T) {
	_, fs := mkFS(t, Config{})
	f := writeAll(t, fs, "f", page(1))
	if _, err := f.WriteAt([]byte("x"), -1); err == nil {
		t.Fatal("negative write offset accepted")
	}
	if _, err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative read offset accepted")
	}
}

func TestCleanRemountImmediateMode(t *testing.T) {
	dev, fs := mkFS(t, Config{Mode: ModeImmediate})
	data := npages(1, 2)
	writeAll(t, fs, "a", data)
	writeAll(t, fs, "b", data)
	fs.Sync()
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, info, err := Mount(dev, Config{Mode: ModeImmediate})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	if !info.Clean {
		t.Fatal("clean unmount not detected")
	}
	a, err := fs2.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAll(t, a), data) {
		t.Fatal("data lost across remount")
	}
	st := fs2.Stats()
	if st.Space.PhysicalPages != 2 || st.Space.LogicalPages != 4 {
		t.Fatalf("dedup state lost across remount: %+v", st.Space)
	}
}

func TestCleanRemountWithPendingQueue(t *testing.T) {
	dev, fs := mkFS(t, Config{Mode: ModeDelayed, DelayInterval: time.Hour, DelayBatch: 1})
	data := npages(3)
	writeAll(t, fs, "a", data)
	writeAll(t, fs, "b", data)
	if fs.StatsSnapshot().Queue.Len != 2 {
		t.Fatalf("queue len = %d", fs.StatsSnapshot().Queue.Len)
	}
	fs.Unmount() // snapshot saved with 2 pending nodes
	fs2, info, err := Mount(dev, Config{Mode: ModeImmediate})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	if !info.Dedup.RestoredFromSnapshot || info.Dedup.Requeued != 2 {
		t.Fatalf("snapshot restore: %+v", info.Dedup)
	}
	fs2.Sync()
	if st := fs2.Stats(); st.Space.PhysicalPages != 1 {
		t.Fatalf("restored queue not processed: %+v", st.Space)
	}
}

func TestCrashRemountRecoversAndResumes(t *testing.T) {
	dev, fs := mkFS(t, Config{Mode: ModeDelayed, DelayInterval: time.Hour, DelayBatch: 1})
	data := npages(5, 6)
	writeAll(t, fs, "a", data)
	writeAll(t, fs, "b", data)
	fs.UnmountDirty() // power cut: DWQ only in DRAM
	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	fs2, info, err := Mount(img, Config{Mode: ModeImmediate})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	if info.Clean {
		t.Fatal("crash not detected")
	}
	if info.Dedup.Requeued != 2 {
		t.Fatalf("requeued = %d, want 2", info.Dedup.Requeued)
	}
	fs2.Sync()
	a, _ := fs2.Open("a")
	if !bytes.Equal(readAll(t, a), data) {
		t.Fatal("data lost after crash")
	}
	if st := fs2.Stats(); st.Space.PhysicalPages != 2 {
		t.Fatalf("dedup did not resume: %+v", st.Space)
	}
}

func TestModeNoneRefusesDedupedDevice(t *testing.T) {
	dev, fs := mkFS(t, Config{Mode: ModeImmediate})
	writeAll(t, fs, "a", npages(1))
	writeAll(t, fs, "b", npages(1))
	fs.Sync()
	fs.Unmount()
	if _, _, err := Mount(dev, Config{Mode: ModeNone}); err == nil {
		t.Fatal("ModeNone mounted a deduplicated device")
	}
	// A dedup mode is fine.
	fs2, _, err := Mount(dev, Config{Mode: ModeImmediate})
	if err != nil {
		t.Fatal(err)
	}
	fs2.Unmount()
}

func TestModeNoneRemountOfCleanBaseline(t *testing.T) {
	dev, fs := mkFS(t, Config{Mode: ModeNone})
	data := npages(1, 1, 2) // duplicates exist but are never collapsed
	writeAll(t, fs, "f", data)
	fs.Unmount()
	fs2, _, err := Mount(dev, Config{Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	f, _ := fs2.Open("f")
	if !bytes.Equal(readAll(t, f), data) {
		t.Fatal("baseline data lost")
	}
	if st := fs2.Stats(); st.Space.PhysicalPages != 3 {
		t.Fatalf("baseline should not dedup: %+v", st.Space)
	}
}

func TestRemoveSharedThenScrubClean(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeImmediate})
	data := npages(9)
	writeAll(t, fs, "a", data)
	b := writeAll(t, fs, "b", data)
	fs.Sync()
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAll(t, b), data) {
		t.Fatal("shared page lost after one remove")
	}
	fs.ScrubNow() // must be a no-op on a healthy FS
	if !bytes.Equal(readAll(t, b), data) {
		t.Fatal("scrub damaged live data")
	}
	if err := fs.CheckFACTInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncDrainsReclaimQueue: with a daemon running, removes and truncates
// of deduplicated files leave their FACT decrements to it; after Sync the
// reclaim queue is empty and the space accounting equals a run that
// released everything synchronously.
func TestSyncDrainsReclaimQueue(t *testing.T) {
	run := func(cfg Config) (StatsSnapshot, Stats) {
		_, fs := mkFS(t, cfg)
		defer fs.Unmount()
		for i := 0; i < 8; i++ {
			writeAll(t, fs, fmt.Sprintf("f%d", i), npages(1, 2, byte(10+i), 3))
		}
		fs.Sync()
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("f%d", i)
			if i%2 == 0 {
				if err := fs.Remove(name); err != nil {
					t.Fatal(err)
				}
				continue
			}
			f, err := fs.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Truncate(4096); err != nil {
				t.Fatal(err)
			}
		}
		fs.Sync()
		return fs.StatsSnapshot(), fs.Stats()
	}
	daemonSnap, daemon := run(Config{Mode: ModeImmediate, Workers: 2})
	syncSnap, sync := run(Config{Mode: ModeImmediate, NoDaemon: true})
	if r := daemonSnap.Reclaim; r.Deferred == 0 || r.Queued != 0 || r.OldestAge != 0 {
		t.Fatalf("with a daemon: %+v; want deferred blocks and an empty queue after Sync", r)
	}
	if r := syncSnap.Reclaim; r.Deferred != 0 || r.Queued != 0 {
		t.Fatalf("without a daemon: %+v; want nothing deferred", r)
	}
	if daemon.Space.FreeBlocks != sync.Space.FreeBlocks || daemon.FS.BlocksFreed != sync.FS.BlocksFreed {
		t.Fatalf("after Sync: %d free blocks, %d freed with a daemon; %d and %d synchronously",
			daemon.Space.FreeBlocks, daemon.FS.BlocksFreed, sync.Space.FreeBlocks, sync.FS.BlocksFreed)
	}
}

func TestSetLingerHook(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeDelayed, DelayInterval: 5 * time.Millisecond, DelayBatch: 100})
	var mu sync.Mutex
	var n int
	fs.SetLingerHook(func(time.Duration) { mu.Lock(); n++; mu.Unlock() })
	writeAll(t, fs, "f", npages(1))
	fs.Sync()
	mu.Lock()
	defer mu.Unlock()
	if n != 1 {
		t.Fatalf("linger hook fired %d times", n)
	}
}

func TestConcurrentWritersWithImmediateDedup(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeImmediate})
	shared := page(42)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f, err := fs.Create(fmt.Sprintf("w%d", w))
			if err != nil {
				t.Error(err)
				return
			}
			for i := int64(0); i < 10; i++ {
				if _, err := f.WriteAt(shared, i*4096); err != nil {
					t.Error(err)
					return
				}
				if _, err := f.WriteAt(page(byte(w)), (10+i)*4096); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	fs.Sync()
	if err := fs.CheckFACTInvariants(); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	// 6 writers * 20 pages logical; physical: 1 shared + 6 distinct.
	if st.Space.LogicalPages != 120 {
		t.Fatalf("logical = %d", st.Space.LogicalPages)
	}
	if st.Space.PhysicalPages != 7 {
		t.Fatalf("physical = %d, want 7", st.Space.PhysicalPages)
	}
	for w := 0; w < 6; w++ {
		f, _ := fs.Open(fmt.Sprintf("w%d", w))
		buf := make([]byte, 4096)
		f.ReadAt(buf, 0)
		if !bytes.Equal(buf, shared) {
			t.Fatalf("writer %d shared page corrupted", w)
		}
		f.ReadAt(buf, 10*4096)
		if !bytes.Equal(buf, page(byte(w))) {
			t.Fatalf("writer %d private page corrupted", w)
		}
	}
}

func TestStatsDeviceCountersAdvance(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeImmediate})
	before := fs.Stats().Device
	writeAll(t, fs, "f", npages(1, 2))
	fs.Sync()
	after := fs.Stats().Device
	if after.WrittenBytes <= before.WrittenBytes || after.PersistedLines() <= before.PersistedLines() {
		t.Fatal("device counters did not advance")
	}
}

func TestMkfsTooSmallDevice(t *testing.T) {
	dev := NewDevice(4*4096, ProfileZero)
	if _, err := Mkfs(dev, Config{}); err == nil {
		t.Fatal("Mkfs on a tiny device succeeded")
	}
}

func TestFileStatAndTimes(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeImmediate})
	f := writeAll(t, fs, "f", npages(1, 2))
	st := f.Stat()
	if st.Name != "f" || st.Size != 8192 || st.IsDir || st.Pages != 2 {
		t.Fatalf("Stat = %+v", st)
	}
	if st.Mtime < st.Ctime || st.Ctime == 0 {
		t.Fatalf("times: %+v", st)
	}
	before := st.Mtime
	if _, err := f.WriteAt(page(9), 0); err != nil {
		t.Fatal(err)
	}
	if f.Stat().Mtime <= before {
		t.Fatal("mtime did not advance on write")
	}
}

func TestDaemonPeriodicScrub(t *testing.T) {
	// ScrubEvery wires the §V-C2 background scrubber into the daemon loop;
	// with a tiny interval it must run without disturbing a live FS.
	_, fs := mkFS(t, Config{
		Mode:          ModeDelayed,
		DelayInterval: 2 * time.Millisecond,
		DelayBatch:    100,
		ScrubEvery:    3,
	})
	data := npages(4)
	writeAll(t, fs, "a", data)
	writeAll(t, fs, "b", data)
	deadline := time.Now().Add(5 * time.Second)
	for fs.Stats().Dedup.PagesDuplicate == 0 {
		if time.Now().After(deadline) {
			t.Fatal("daemon never deduplicated")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let several scrub ticks pass
	a, _ := fs.Open("a")
	if !bytes.Equal(readAll(t, a), data) {
		t.Fatal("scrubber damaged live data")
	}
	if err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
}

func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		name string
		want Mode
	}{
		{"none", ModeNone},
		{"inline", ModeInline},
		{"immediate", ModeImmediate},
		{"delayed", ModeDelayed},
	} {
		if got, err := ParseMode(c.name); err != nil || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	if _, err := ParseMode("denova-immediate"); !errors.Is(err, ErrInvalid) {
		t.Errorf("ParseMode of an unknown name: err = %v, want ErrInvalid", err)
	}
}

// TestMountRefusesStrandedFactEntry cuts a FACT chain on a clean image, so
// an IAA entry whose block files still map is no longer reachable. Mount
// must refuse the image: clearing the entry as an orphan would let a later
// delete free that block under another file.
func TestMountRefusesStrandedFactEntry(t *testing.T) {
	dev, fs := mkFS(t, Config{Mode: ModeImmediate})
	var seeds []byte
	for s := 1; s < 256; s++ {
		seeds = append(seeds, byte(s))
	}
	writeAll(t, fs, "a", npages(seeds...))
	writeAll(t, fs, "b", npages(seeds...))
	fs.Sync()
	var head int64 = -1
	for p := int64(0); p < fs.table.DAAEntries() && head < 0; p++ {
		if len(fs.table.ChainOf(uint64(p))) > 1 {
			head = p
		}
	}
	if head < 0 {
		t.Fatal("no FACT chain has an IAA member")
	}
	const nextWord = 24 // an entry's next pointer (fact's on-PM layout)
	off := fs.fs.Geo.FactOff + head*fact.EntrySize + nextWord
	fs.Unmount()
	dev.Store64(off, fact.None)
	dev.Persist(off, 8)
	if _, _, err := Mount(dev, Config{Mode: ModeImmediate}); err == nil {
		t.Fatal("Mount accepted a FACT entry that holds references but no chain reaches")
	}
}
