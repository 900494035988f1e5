package nova

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"denova/internal/obs"
	"denova/internal/pmem"
)

// forgeDanglingDentry simulates a crash in the middle of Delete: the name's
// dentry is committed in the parent log but the target inode record has
// been invalidated on PM.
func forgeDanglingDentry(t *testing.T, dev *pmem.Device, fs *FS, name string) {
	t.Helper()
	in, err := fs.Lookup(name)
	if err != nil {
		t.Fatalf("Lookup(%q): %v", name, err)
	}
	dev.PersistStore64(fs.inodeOff(in.ino)+inFlags, 0)
}

func TestDanglingDentryRepairPersists(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	writeFileT(t, fs, "victim", patternData(100, 1))
	writeFileT(t, fs, "keeper", patternData(100, 2))
	forgeDanglingDentry(t, dev, fs, "victim")

	img := dev.Clone()
	fs2, res, err := Mount(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Lookup("victim"); err == nil {
		t.Fatal("dangling name still resolves after recovery")
	}
	if res.RepairsPersisted != 1 {
		t.Fatalf("RepairsPersisted = %d, want 1", res.RepairsPersisted)
	}
	if in, err := fs2.Lookup("keeper"); err != nil {
		t.Fatal(err)
	} else if got := readFileT(t, fs2, in, 0, 100); !bytes.Equal(got, patternData(100, 2)) {
		t.Fatal("keeper content corrupted by repair")
	}
	if err := fs2.Fsck(nil); err != nil {
		t.Fatal(err)
	}

	// The repair is durable: a second (dirty) mount of the repaired image
	// finds nothing left to fix.
	img2 := img.Clone()
	_, res2, err := Mount(img2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.RepairsPersisted != 0 {
		t.Fatalf("repair not durable: second mount persisted %d repairs", res2.RepairsPersisted)
	}
}

// TestDanglingDentryRepairCrashSweep crashes the recovery itself at every
// persist point of the repairing mount: whatever the crash leaves behind,
// the next mount must converge — the dangling name never resolves and the
// image passes fsck. At the early crash points the repair never committed,
// so the second mount must redo it.
func TestDanglingDentryRepairCrashSweep(t *testing.T) {
	t.Parallel()
	base, fs := mkfsT(t)
	writeFileT(t, fs, "victim", patternData(100, 1))
	writeFileT(t, fs, "keeper", patternData(100, 2))
	forgeDanglingDentry(t, base, fs, "victim")

	var redone atomic.Bool
	res, err := pmem.Sweep(func() (*pmem.Device, func() error, error) {
		work := base.Clone()
		return work, func() error { _, _, err := Mount(work); return err }, nil
	}, func(img *pmem.Device, _ int64) error {
		fs, res, err := Mount(img)
		if err != nil {
			return err
		}
		if _, err := fs.Lookup("victim"); err == nil {
			return fmt.Errorf("dangling name resurrected")
		}
		if res.RepairsPersisted > 0 {
			redone.Store(true)
		}
		if err := checkContent(fs, "keeper", patternData(100, 2)); err != nil {
			return err
		}
		return fs.Fsck(nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d persist points, %d crashed, %d images checked", res.Total, res.Points, res.Images)
	if !redone.Load() {
		t.Error("no crash point left the repair uncommitted; sweep never exercised the redo path")
	}
}

// TestMountGCReclaimsDeadLogPages crashes between the tail commit that
// kills a log page's last live entry and the fast-GC unlink, at every
// persist point of the triggering write. Runtime GC can never revisit such
// a page (no future entry death touches it), so the end-of-mount sweep must
// reclaim it.
func TestMountGCReclaimsDeadLogPages(t *testing.T) {
	t.Parallel()
	base := pmem.New(testDevSize, pmem.ProfileZero)
	{
		fs, err := Mkfs(base, 64)
		if err != nil {
			t.Fatal(err)
		}
		in, err := fs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		// Fill the file's first log page completely: 63 overwrites, each
		// killing its predecessor. The next write spills to a fresh page and
		// its commit kills entry 63 — emptying page one — then fast-GCs it.
		for i := 0; i < EntriesPerLogPage; i++ {
			if _, err := fs.Write(in, 0, []byte{byte(i)}, FlagNone, obs.SpanContext{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	var sweptAny atomic.Bool
	sweepMount(t, base, func(fs *FS) error {
		in, err := fs.Lookup("f")
		if err == nil {
			_, err = fs.Write(in, 0, []byte{0xAB}, FlagNone, obs.SpanContext{})
		}
		if err == nil && fs.Stats().GCLogPages == 0 {
			err = fmt.Errorf("triggering write did not fast-GC a page; test setup is stale")
		}
		return err
	}, func(fs *FS, res *ScanResult) error {
		in, err := fs.Lookup("f")
		if err != nil {
			return err
		}
		got, err := readFile(fs, in, 0, 1)
		if err != nil || (got[0] != 0xAB && got[0] != byte(EntriesPerLogPage-1)) {
			return fmt.Errorf("content = %#x, want old or new value (%v)", got, err)
		}
		if err := fs.Fsck(nil); err != nil {
			return err
		}
		if res.GCPages > 0 {
			sweptAny.Store(true)
			// The sweep's unlink is persistent: a remount has nothing left.
			_, res2, err := Mount(fs.Dev.Clone())
			if err != nil {
				return fmt.Errorf("remount: %v", err)
			}
			if res2.GCPages != 0 {
				return fmt.Errorf("mount GC not durable, remount swept %d pages", res2.GCPages)
			}
		}
		return nil
	})
	if !sweptAny.Load() {
		t.Error("no crash point left a dead page for the mount sweep; the interrupted-GC window was never hit")
	}
}

func TestCorruptDentryCountedNotFatal(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	writeFileT(t, fs, "aa", patternData(40, 1))
	writeFileT(t, fs, "bb", patternData(40, 2))
	// The root log's first committed entry is "aa"'s dentry. Smash its type
	// byte into garbage that decodes as neither dentry kind nor a zeroed
	// slot.
	off := int64(fs.root.logHead * PageSize)
	dev.Write(off, []byte{0x7F})
	dev.Persist(off, 1)

	img := dev.Clone()
	fs2, res, err := Mount(img)
	if err != nil {
		t.Fatalf("corrupt dentry must not fail the mount: %v", err)
	}
	if res.DentryCorrupt != 1 {
		t.Fatalf("DentryCorrupt = %d, want 1", res.DentryCorrupt)
	}
	if _, err := fs2.Lookup("aa"); err == nil {
		t.Fatal("name behind corrupt dentry still resolves")
	}
	// The inode the lost name pointed at is unreachable now: it must have
	// been reclaimed as an orphan, keeping the image consistent.
	if len(res.Orphans) != 1 {
		t.Fatalf("Orphans = %v, want exactly the lost file's inode", res.Orphans)
	}
	if in, err := fs2.Lookup("bb"); err != nil {
		t.Fatal(err)
	} else if got := readFileT(t, fs2, in, 0, 40); !bytes.Equal(got, patternData(40, 2)) {
		t.Fatal("sibling content corrupted")
	}
	if err := fs2.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

// buildMessyImage fills a device with a randomized mix of recovery work:
// nested directories, multi-page files with dedupe-flagged writes, deletes,
// truncates, an orphan inode, and a dangling dentry — then leaves it dirty.
func buildMessyImage(t *testing.T, seed int64) *pmem.Device {
	t.Helper()
	dev := pmem.New(testDevSize, pmem.ProfileZero)
	fs, err := Mkfs(dev, 256)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	if _, err := fs.Mkdir("d"); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("f%02d", i)
		if rng.Intn(3) == 0 {
			name = "d/" + name
		}
		in, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		writes := 1 + rng.Intn(4)
		for w := 0; w < writes; w++ {
			flag := uint8(FlagNone)
			if rng.Intn(2) == 0 {
				flag = FlagNeeded
			}
			data := patternData(1+rng.Intn(2*PageSize), byte(i*7+w))
			if _, err := fs.Write(in, uint64(rng.Intn(3))*PageSize, data, flag, obs.SpanContext{}); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(4) == 0 {
			if err := fs.Truncate(in, uint64(rng.Intn(PageSize)), FlagNone, obs.SpanContext{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range names {
		if rng.Intn(5) == 0 {
			if err := fs.Delete(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	// An orphan (inode without a dentry, as a crashed create leaves it)...
	if _, err := fs.newInode(200, false); err != nil {
		t.Fatal(err)
	}
	// ...and a dangling dentry (dentry without an inode, crashed delete).
	forgeDanglingDentry(t, dev, fs, names[0])
	return dev // no Unmount: the image is dirty
}

// TestMountWorkersDeterministic mounts clones of randomized dirty images
// with 1 and 8 workers: the ScanResults (minus pass timings) and the
// post-mount device images must be identical.
func TestMountWorkersDeterministic(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 3; seed++ {
		base := buildMessyImage(t, seed)
		img1, img8 := base.Clone(), base.Clone()
		fs1, res1, err := Mount(img1, WithMountWorkers(1))
		if err != nil {
			t.Fatalf("seed %d: workers=1: %v", seed, err)
		}
		fs8, res8, err := Mount(img8, WithMountWorkers(8))
		if err != nil {
			t.Fatalf("seed %d: workers=8: %v", seed, err)
		}
		res1.Passes, res8.Passes = nil, nil
		if !reflect.DeepEqual(res1, res8) {
			t.Errorf("seed %d: ScanResults diverge:\n 1: %+v\n 8: %+v", seed, res1, res8)
		}
		b1 := make([]byte, img1.Size())
		b8 := make([]byte, img8.Size())
		img1.Read(0, b1)
		img8.Read(0, b8)
		if !bytes.Equal(b1, b8) {
			t.Errorf("seed %d: post-mount images differ between 1 and 8 workers", seed)
		}
		if err := fs1.Fsck(nil); err != nil {
			t.Errorf("seed %d: workers=1 fsck: %v", seed, err)
		}
		if err := fs8.Fsck(nil); err != nil {
			t.Errorf("seed %d: workers=8 fsck: %v", seed, err)
		}
	}
}

// TestForgedOrphanReclaimed plants an inode with no dentry (what a crash
// between inode persist and dentry commit leaves) and verifies the mount
// reports it, releases its blocks, and frees its slot.
func TestForgedOrphanReclaimed(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	writeFileT(t, fs, "real", patternData(100, 3))
	free0 := fs.FreeBlocks()
	if _, err := fs.newInode(50, false); err != nil {
		t.Fatal(err)
	}
	if fs.FreeBlocks() >= free0 {
		t.Fatal("forged orphan allocated nothing; test setup is stale")
	}

	img := dev.Clone()
	fs2, res, err := Mount(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Orphans) != 1 || res.Orphans[0] != 50 {
		t.Fatalf("Orphans = %v, want [50]", res.Orphans)
	}
	if got := fs2.FreeBlocks(); got != free0 {
		t.Fatalf("orphan blocks leaked: free %d, want %d", got, free0)
	}
	if _, ok := fs2.Inode(50); ok {
		t.Fatal("orphan inode still mapped after reclaim")
	}
	// The slot is durably free: its on-PM record is invalid on a remount.
	img2 := img.Clone()
	_, res2, err := Mount(img2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Orphans) != 0 {
		t.Fatalf("orphan reclaim not durable: remount found %v", res2.Orphans)
	}
	if err := fs2.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}
