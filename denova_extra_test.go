package denova

import (
	"crypto/sha1"
	"sync"

	"bytes"
	"denova/internal/nova"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"denova/internal/pmem"
)

// --- Truncate through the public API, interacting with deduplication ---

func TestTruncateSharedFileKeepsTwin(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeImmediate})
	data := npages(1, 2, 3)
	a := writeAll(t, fs, "a", data)
	b := writeAll(t, fs, "b", data)
	fs.Sync() // all three pages shared
	if err := a.Truncate(4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAll(t, b), data) {
		t.Fatal("truncating one twin damaged the other")
	}
	if got := readAll(t, a); !bytes.Equal(got, data[:4096]) {
		t.Fatal("truncated file content wrong")
	}
	if err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
	// Remove b entirely: now pages 2,3 of the content must be fully freed,
	// page 1 still shared... no — a holds only page 0 now.
	if err := fs.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.Space.LogicalPages != 1 || st.Space.PhysicalPages != 1 {
		t.Fatalf("space after truncate+remove: %+v", st.Space)
	}
}

func TestTruncateNegativeRejected(t *testing.T) {
	_, fs := mkFS(t, Config{})
	f := writeAll(t, fs, "f", page(1))
	if err := f.Truncate(-1); err == nil {
		t.Fatal("negative truncate accepted")
	}
}

func TestTruncateSurvivesCrashWithDedup(t *testing.T) {
	dev, fs := mkFS(t, Config{Mode: ModeImmediate, NoDaemon: true})
	data := npages(1, 1, 2) // page 0 and 1 identical
	f := writeAll(t, fs, "f", data)
	fs.Sync() // dedup collapses pages 0,1
	if err := f.Truncate(4096); err != nil {
		t.Fatal(err)
	}
	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	fs2, _, err := Mount(img, Config{Mode: ModeImmediate, NoDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := fs2.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 4096 {
		t.Fatalf("size = %d", g.Size())
	}
	if !bytes.Equal(readAll(t, g), data[:4096]) {
		t.Fatal("content after crash wrong")
	}
	if err := fs2.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// --- Whole-stack fsck coverage ---

func TestFsckAcrossLifecycles(t *testing.T) {
	dev, fs := mkFS(t, Config{Mode: ModeImmediate})
	for i := 0; i < 30; i++ {
		writeAll(t, fs, fmt.Sprintf("f%d", i), npages(byte(i%5), byte(i%3)))
	}
	fs.Sync()
	if err := fs.Fsck(); err != nil {
		t.Fatalf("after writes: %v", err)
	}
	for i := 0; i < 30; i += 3 {
		if err := fs.Remove(fmt.Sprintf("f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Fsck(); err != nil {
		t.Fatalf("after removes: %v", err)
	}
	fs.Unmount()
	fs2, _, err := Mount(dev, Config{Mode: ModeImmediate})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	if err := fs2.Fsck(); err != nil {
		t.Fatalf("after remount: %v", err)
	}
}

// --- Cross-mode equivalence: every mode must expose identical file
// contents for the same operation stream; only the physical layout may
// differ. ---

type fsOp struct {
	kind int // 0 create+write, 1 overwrite, 2 remove, 3 truncate, 4 sync
	file int
	off  int
	n    int
	seed byte
	size int
}

func randOps(rng *rand.Rand, count int) []fsOp {
	ops := make([]fsOp, count)
	for i := range ops {
		ops[i] = fsOp{
			kind: rng.Intn(5),
			file: rng.Intn(6),
			off:  rng.Intn(3) * 4096,
			n:    rng.Intn(2*4096) + 1,
			seed: byte(rng.Intn(4)), // few seeds -> lots of duplicate content
			size: rng.Intn(3 * 4096),
		}
	}
	return ops
}

func applyOps(t *testing.T, fs *FS, ops []fsOp) map[string][]byte {
	t.Helper()
	model := map[string][]byte{}
	for _, op := range ops {
		name := fmt.Sprintf("f%d", op.file)
		switch op.kind {
		case 0, 1:
			f, err := fs.Open(name)
			if err == ErrNotFound {
				f, err = fs.Create(name)
			}
			if err != nil {
				t.Fatal(err)
			}
			data := bytes.Repeat([]byte{op.seed + 1}, op.n)
			if _, err := f.WriteAt(data, int64(op.off)); err != nil {
				t.Fatal(err)
			}
			m := model[name]
			if len(m) < op.off+op.n {
				nm := make([]byte, op.off+op.n)
				copy(nm, m)
				m = nm
			}
			copy(m[op.off:], data)
			model[name] = m
		case 2:
			err := fs.Remove(name)
			if _, ok := model[name]; ok {
				if err != nil {
					t.Fatal(err)
				}
				delete(model, name)
			} else if err != ErrNotFound {
				t.Fatalf("remove missing: %v", err)
			}
		case 3:
			f, err := fs.Open(name)
			if err != nil {
				continue
			}
			if err := f.Truncate(int64(op.size)); err != nil {
				t.Fatal(err)
			}
			m := model[name]
			if op.size <= len(m) {
				model[name] = m[:op.size]
			} else {
				nm := make([]byte, op.size)
				copy(nm, m)
				model[name] = nm
			}
		case 4:
			fs.Sync()
		}
	}
	fs.Sync()
	return model
}

func verifyModel(t *testing.T, fs *FS, model map[string][]byte, label string) {
	t.Helper()
	if got, want := len(fs.Names()), len(model); got != want {
		t.Fatalf("%s: %d names, want %d", label, got, want)
	}
	for name, want := range model {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatalf("%s: open %q: %v", label, name, err)
		}
		if f.Size() != int64(len(want)) {
			t.Fatalf("%s: %q size %d, want %d", label, name, f.Size(), len(want))
		}
		got := readAll(t, f)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %q content mismatch", label, name)
		}
	}
}

func TestPropertyModesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randOps(rng, 60)
		for _, cfg := range []Config{
			{Mode: ModeNone},
			{Mode: ModeInline},
			{Mode: ModeImmediate},
			{Mode: ModeDelayed, DelayInterval: time.Millisecond, DelayBatch: 64},
		} {
			_, fs := mkFS(t, cfg)
			model := applyOps(t, fs, ops)
			verifyModel(t, fs, model, cfg.Mode.String())
			if err := fs.Fsck(); err != nil {
				t.Logf("%s: fsck: %v", cfg.Mode, err)
				return false
			}
			fs.Unmount()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCrashAnywhereInOpStream drives a random op stream on a
// daemon-less immediate-mode FS, crashes at a random persist point,
// recovers, and checks (a) fsck passes, (b) every file readable, (c) the
// system keeps working afterwards.
func TestPropertyCrashAnywhereInOpStream(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randOps(rng, 40)
		dev := NewDevice(testDevSize, ProfileZero)
		fs, err := Mkfs(dev, Config{Mode: ModeImmediate, NoDaemon: true})
		if err != nil {
			return false
		}
		// Probe run to learn the persist-op budget.
		applyOps(t, fs, ops)
		total := dev.PersistOps()
		k := rng.Int63n(total-1) + 1

		dev2 := NewDevice(testDevSize, ProfileZero)
		fs2, err := Mkfs(dev2, Config{Mode: ModeImmediate, NoDaemon: true})
		if err != nil {
			return false
		}
		dev2.SetCrashAfter(k)
		pmem.RunToCrash(func() { applyOps(t, fs2, ops) })
		img := dev2.CrashImage(pmem.CrashDropDirty, seed)
		fs3, _, err := Mount(img, Config{Mode: ModeImmediate, NoDaemon: true})
		if err != nil {
			t.Logf("seed %d k %d: recovery mount: %v", seed, k, err)
			return false
		}
		if err := fs3.Fsck(); err != nil {
			t.Logf("seed %d k %d: fsck: %v", seed, k, err)
			return false
		}
		// Every visible file must be fully readable.
		for _, name := range fs3.Names() {
			fh, err := fs3.Open(name)
			if err != nil {
				return false
			}
			buf := make([]byte, fh.Size())
			if _, err := fh.ReadAt(buf, 0); err != nil {
				return false
			}
		}
		// And the FS must still work: clear the survivors, then run the op
		// stream again from scratch and verify against the model.
		for _, name := range fs3.Names() {
			if err := fs3.Remove(name); err != nil {
				return false
			}
		}
		model := applyOps(t, fs3, ops)
		verifyModel(t, fs3, model, "post-crash")
		return fs3.Fsck() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestDWQOverflowFallsBackToScan: when the clean-unmount queue snapshot
// was truncated (overflow flag raised), the next mount must ignore the
// snapshot and rebuild the queue from the dedupe-flag scan.
func TestDWQOverflowFallsBackToScan(t *testing.T) {
	dev, fs := mkFS(t, Config{Mode: ModeDelayed, DelayInterval: time.Hour, DelayBatch: 1})
	data := npages(3)
	writeAll(t, fs, "a", data)
	writeAll(t, fs, "b", data)
	if err := fs.Unmount(); err != nil { // snapshot saved (2 nodes, no overflow)
		t.Fatal(err)
	}
	// Simulate a truncated snapshot: raise the overflow flag the unmount
	// path sets when the save area cannot hold the queue.
	nova.SetDWQOverflowFlag(dev, true)
	fs2, info, err := Mount(dev, Config{Mode: ModeImmediate})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	if info.Dedup.RestoredFromSnapshot {
		t.Fatal("overflowed snapshot was trusted")
	}
	if info.Dedup.Requeued != 2 {
		t.Fatalf("scan requeued %d entries, want 2", info.Dedup.Requeued)
	}
	fs2.Sync()
	if st := fs2.Stats(); st.Space.PhysicalPages != 1 {
		t.Fatalf("dedup incomplete after scan fallback: %+v", st.Space)
	}
}

// TestSparseHugeOffsets exercises radix growth and hole semantics at very
// large file offsets.
func TestSparseHugeOffsets(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeImmediate})
	f, err := fs.Create("huge")
	if err != nil {
		t.Fatal(err)
	}
	const off = int64(3) << 30 // 3 GiB logical offset on a 64 MB device
	if _, err := f.WriteAt(page(7), off); err != nil {
		t.Fatal(err)
	}
	if f.Size() != off+4096 {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page(7)) {
		t.Fatal("data at huge offset wrong")
	}
	// A read deep inside the hole is all zeros.
	if _, err := f.ReadAt(buf, 1<<30); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
	fs.Sync()
	if err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// TestLongAndBoundaryNames covers the dentry name-length limit end to end.
func TestLongAndBoundaryNames(t *testing.T) {
	_, fs := mkFS(t, Config{})
	max := string(bytes.Repeat([]byte("n"), 48))
	if _, err := fs.Create(max); err != nil {
		t.Fatalf("48-byte name rejected: %v", err)
	}
	if _, err := fs.Open(max); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(max + "x"); err == nil {
		t.Fatal("49-byte name accepted")
	}
	if _, err := fs.Create(""); err == nil {
		t.Fatal("empty name accepted")
	}
}

// TestMixedConcurrencyStress runs writers, readers, removers and the
// dedup daemon together, then checks every invariant the stack has.
func TestMixedConcurrencyStress(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeImmediate})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Two writers on their own files with shared content.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				name := fmt.Sprintf("w%d-%d", w, i%5)
				f, err := fs.Open(name)
				if err != nil {
					if f, err = fs.Create(name); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := f.WriteAt(npages(byte(i%4)), int64(i%3)*4096); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// A reader scanning whatever exists (not in wg: it runs until stopped).
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		buf := make([]byte, 8192)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, name := range fs.Names() {
				if f, err := fs.Open(name); err == nil {
					f.ReadAt(buf, 0)
				}
			}
		}
	}()
	// A remover churning one name.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			name := "victim"
			if f, err := fs.Create(name); err == nil {
				f.WriteAt(npages(9), 0)
				fs.Remove(name)
			}
		}
	}()
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	select {
	case <-wgDone:
	case <-time.After(60 * time.Second):
		t.Fatal("stress deadlocked")
	}
	close(stop)
	<-readerDone
	fs.Sync()
	if err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// --- Hierarchical namespace through the public API ---

func TestDirectoriesEndToEnd(t *testing.T) {
	dev, fs := mkFS(t, Config{Mode: ModeImmediate})
	if err := fs.Mkdir("photos"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("photos/2026"); err != nil {
		t.Fatal(err)
	}
	data := npages(5, 6)
	writeAll(t, fs, "photos/2026/trip", data)
	writeAll(t, fs, "photos/2026/trip-copy", data)
	fs.Sync()
	st := fs.Stats()
	if st.Space.PhysicalPages != 2 || st.Space.LogicalPages != 4 {
		t.Fatalf("dedup across directories broken: %+v", st.Space)
	}
	if err := fs.Mkdir("photos"); err != ErrExists {
		t.Fatalf("duplicate mkdir: %v", err)
	}
	entries, err := fs.List("photos/2026")
	if err != nil || len(entries) != 2 {
		t.Fatalf("List = %v, %v", entries, err)
	}
	f, err := fs.Open("photos/2026/trip")
	if err != nil {
		t.Fatal(err)
	}
	if f.Stat().IsDir {
		t.Fatal("file reported as dir")
	}
	// Clean remount preserves the tree and the sharing.
	fs.Unmount()
	fs2, _, err := Mount(dev, Config{Mode: ModeImmediate})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	g, err := fs2.Open("photos/2026/trip-copy")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAll(t, g), data) {
		t.Fatal("content lost across remount")
	}
	if st := fs2.Stats(); st.Space.PhysicalPages != 2 {
		t.Fatalf("sharing lost across remount: %+v", st.Space)
	}
	if err := fs2.Fsck(); err != nil {
		t.Fatal(err)
	}
	// Teardown in order.
	if err := fs2.Rmdir("photos"); err != ErrNotEmpty {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	fs2.Remove("photos/2026/trip")
	fs2.Remove("photos/2026/trip-copy")
	if err := fs2.Rmdir("photos/2026"); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Rmdir("photos"); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Fsck(); err != nil {
		t.Fatal(err)
	}
}

func TestDirCrashRecoveryWithDedup(t *testing.T) {
	dev, fs := mkFS(t, Config{Mode: ModeImmediate, NoDaemon: true})
	fs.Mkdir("a")
	fs.Mkdir("b")
	data := npages(7)
	writeAll(t, fs, "a/f", data)
	writeAll(t, fs, "b/f", data)
	img := dev.CrashImage(pmem.CrashDropDirty, 0) // queue still pending
	fs2, info, err := Mount(img, Config{Mode: ModeImmediate, NoDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Dedup.Requeued != 2 {
		t.Fatalf("requeued %d, want 2", info.Dedup.Requeued)
	}
	fs2.Sync()
	if st := fs2.Stats(); st.Space.PhysicalPages != 1 {
		t.Fatalf("cross-directory dedup after crash: %+v", st.Space)
	}
	for _, p := range []string{"a/f", "b/f"} {
		f, err := fs2.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readAll(t, f), data) {
			t.Fatalf("%s corrupted", p)
		}
	}
	if err := fs2.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPhysicalPagesEqualDistinctContents: after all dedup work
// drains, the number of distinct physical pages backing the namespace must
// equal the number of distinct page contents — deduplication is exact, in
// every dedup mode, across writes, overwrites and truncates.
func TestPropertyPhysicalPagesEqualDistinctContents(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randOps(rng, 50)
		for _, cfg := range []Config{
			{Mode: ModeInline},
			{Mode: ModeImmediate},
		} {
			_, fs := mkFS(t, cfg)
			model := applyOps(t, fs, ops)
			fs.Sync()
			distinct := map[[20]byte]bool{}
			var logical int64
			for name, content := range model {
				f, err := fs.Open(name)
				if err != nil {
					return false
				}
				_ = f
				for off := 0; off < len(content); off += 4096 {
					end := off + 4096
					if end > len(content) {
						end = len(content)
					}
					page := make([]byte, 4096)
					copy(page, content[off:end])
					allZero := true
					for _, b := range page {
						if b != 0 {
							allZero = false
							break
						}
					}
					if allZero {
						// Holes may be unmapped; skip them — but a written
						// all-zero page WOULD be mapped. The model cannot
						// distinguish, so treat zero pages as non-binding.
						continue
					}
					distinct[sha1.Sum(page)] = true
					logical++
				}
			}
			st := fs.Stats()
			// Every non-zero page content maps to exactly one physical
			// page; zero pages may add at most one more shared/unshared
			// set of blocks.
			if int64(len(distinct)) > st.Space.PhysicalPages {
				t.Logf("%s seed %d: %d distinct contents > %d physical pages",
					cfg.Mode, seed, len(distinct), st.Space.PhysicalPages)
				return false
			}
			// And dedup must actually have collapsed: physical pages can
			// exceed distinct contents only by the number of mapped
			// all-zero pages.
			zeroBudget := st.Space.LogicalPages - logical
			if st.Space.PhysicalPages > int64(len(distinct))+zeroBudget {
				t.Logf("%s seed %d: %d physical pages > %d distinct + %d zero-page budget",
					cfg.Mode, seed, st.Space.PhysicalPages, len(distinct), zeroBudget)
				return false
			}
			if err := fs.Fsck(); err != nil {
				t.Logf("%s seed %d: %v", cfg.Mode, seed, err)
				return false
			}
			fs.Unmount()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
