package nova

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"denova/internal/obs"
	"denova/internal/pmem"
)

// --- Split write path: staging, relink, and their interactions ---

func TestStageWriteReadOverlay(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	base := patternData(PageSize+100, 1)
	in := writeFileT(t, fs, "f", base)

	// Overwrite the middle and append past EOF — both stay in DRAM.
	over := patternData(200, 2)
	if n, err := fs.StageWrite(in, 50, over, FlagNone, obs.SpanContext{}); err != nil || n != len(over) {
		t.Fatalf("StageWrite = %d, %v", n, err)
	}
	app := patternData(300, 3)
	appOff := uint64(len(base))
	if _, err := fs.StageWrite(in, appOff, app, FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}

	model := make([]byte, int(appOff)+len(app))
	copy(model, base)
	copy(model[50:], over)
	copy(model[appOff:], app)

	// The overlay is visible to reads and Size before any PM commit.
	if got := in.Size(); got != uint64(len(model)) {
		t.Fatalf("staged Size = %d, want %d", got, len(model))
	}
	if got := readFileT(t, fs, in, 0, len(model)+64); !bytes.Equal(got, model) {
		t.Fatal("staged read does not match model")
	}
	if st := fs.Stats(); st.Writes != 1 || st.Relinks != 0 {
		t.Fatalf("staging touched the log: %+v", st)
	}

	// Relink commits it; content and size are unchanged, now durable.
	runs, err := fs.Relink(in)
	if err != nil || runs == 0 {
		t.Fatalf("Relink = %d, %v", runs, err)
	}
	if in.StagedPages() != 0 {
		t.Fatalf("%d pages staged after relink", in.StagedPages())
	}
	if got := readFileT(t, fs, in, 0, len(model)+64); !bytes.Equal(got, model) {
		t.Fatal("post-relink read does not match model")
	}
	if err := fs.Fsck(nil); err != nil {
		t.Fatalf("fsck: %v", err)
	}
}

// TestCommitBudget pins what each transaction on the one commit path costs
// the device — fences, flushed lines, non-temporal lines — for a FlagNone
// file with room in its tail log page. A transaction is reserve, append…,
// commit: one flushed line per record, then one fence and the fenced tail
// store, however many records it carries. The two eight-page rows are the
// mechanism claim of the split write path: staged pages relink with at
// least 4x fewer fences than the same pages written one by one.
func TestCommitBudget(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	var in *Inode
	const relinkRow, slowRow = "8 staged pages relinked as one extent", "8 one-page writes"
	rows := []struct {
		name                string
		prep                func() error // uncounted set-up
		op                  func() error
		fences, flushed, nt int64
	}{
		{name: "create", fences: 5, flushed: 6,
			op: func() (err error) { in, err = fs.Create("f"); return }},
		{name: "1-page write", fences: 2, flushed: 2, nt: 64,
			op: func() error {
				_, err := fs.Write(in, 0, patternData(PageSize, 1), FlagNone, obs.SpanContext{})
				return err
			}},
		{name: "4-page write", fences: 2, flushed: 2, nt: 256,
			op: func() error {
				_, err := fs.Write(in, PageSize, patternData(4*PageSize, 2), FlagNone, obs.SpanContext{})
				return err
			}},
		{name: "1-page overwrite", fences: 2, flushed: 2, nt: 64,
			op: func() error {
				_, err := fs.Write(in, 0, patternData(PageSize, 3), FlagNone, obs.SpanContext{})
				return err
			}},
		{name: "page-aligned truncate", fences: 2, flushed: 2,
			op: func() error { return fs.Truncate(in, 3*PageSize, FlagNone, obs.SpanContext{}) }},
		// Two records — the remapped tail page and the truncate entry — under
		// one fence; fencing each, as the three-way append once did, is 3/3/64.
		{name: "mid-page truncate with tail remap", fences: 2, flushed: 3, nt: 64,
			op: func() error { return fs.Truncate(in, 2*PageSize+100, FlagNone, obs.SpanContext{}) }},
		{name: relinkRow, fences: 2, flushed: 2, nt: 512,
			prep: func() error { return stagePagesT(fs, in, 8, 9, 10, 11, 12, 13, 14, 15) },
			op:   func() error { _, err := fs.Relink(in); return err }},
		{name: "3 disjoint staged pages", fences: 2, flushed: 4, nt: 192,
			prep: func() error { return stagePagesT(fs, in, 20, 22, 24) },
			op:   func() error { _, err := fs.Relink(in); return err }},
		{name: slowRow, fences: 16, flushed: 16, nt: 512,
			op: func() error {
				for pg := uint64(8); pg < 16; pg++ { // the relinked pages again, 22 pages up
					if _, err := fs.Write(in, (pg+22)*PageSize, patternData(PageSize, byte(pg)), FlagNone, obs.SpanContext{}); err != nil {
						return err
					}
				}
				return nil
			}},
		{name: "delete", fences: 3, flushed: 3,
			prep: func() error {
				if !bytes.Equal(readFileT(t, fs, in, 8*PageSize, 8*PageSize), readFileT(t, fs, in, 30*PageSize, 8*PageSize)) {
					t.Error("relinked content diverges from the slow path's")
				}
				return fs.Fsck(nil)
			},
			op: func() error { return fs.Delete("f") }},
	}
	fences := map[string]int64{}
	for _, row := range rows {
		if row.prep != nil {
			if err := row.prep(); err != nil {
				t.Fatalf("before %s: %v", row.name, err)
			}
		}
		before := dev.Stats()
		if err := row.op(); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		c := dev.Stats().Sub(before)
		if c.Fences != row.fences || c.FlushedLines != row.flushed || c.NTLines != row.nt {
			t.Errorf("%s: %d fences / %d flushed lines / %d NT lines, want %d / %d / %d",
				row.name, c.Fences, c.FlushedLines, c.NTLines, row.fences, row.flushed, row.nt)
		}
		fences[row.name] = c.Fences
	}
	if fences[relinkRow]*4 > fences[slowRow] {
		t.Errorf("fences: staged batch %d vs slow path %d — less than 4x better", fences[relinkRow], fences[slowRow])
	}
	if err := fs.Fsck(nil); err != nil {
		t.Fatalf("fsck: %v", err)
	}
}

// stagePagesT stages one full page of pattern data at each of pgs.
func stagePagesT(fs *FS, in *Inode, pgs ...uint64) error {
	for _, pg := range pgs {
		if _, err := fs.StageWrite(in, pg*PageSize, patternData(PageSize, byte(pg)), FlagNone, obs.SpanContext{}); err != nil {
			return err
		}
	}
	return nil
}

// TestRelinkSparseExtents: discontiguous staged pages become one entry per
// contiguous run, and the holes between them read as zeros.
func TestRelinkSparseExtents(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	in, err := fs.Create("sparse")
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, 11*PageSize)
	for _, pg := range []uint64{0, 1, 5, 9, 10} {
		data := patternData(PageSize, byte(pg))
		if _, err := fs.StageWrite(in, pg*PageSize, data, FlagNone, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
		copy(model[pg*PageSize:], data)
	}
	runs, err := fs.Relink(in)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 3 { // {0,1} {5} {9,10}
		t.Errorf("relink runs = %d, want 3", runs)
	}
	if st := fs.Stats(); st.RelinkPages != 5 {
		t.Errorf("RelinkPages = %d, want 5", st.RelinkPages)
	}
	if got := readFileT(t, fs, in, 0, len(model)); !bytes.Equal(got, model) {
		t.Fatal("sparse relink content mismatch (holes must read zero)")
	}
	if err := fs.Fsck(nil); err != nil {
		t.Fatalf("fsck: %v", err)
	}
}

// TestStagingRandomOracle mixes slow-path writes, staged writes, relinks
// and truncates against a flat byte-slice model, then survives a remount.
func TestStagingRandomOracle(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev, fs := mkfsT(t)
		in, err := fs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		var model []byte
		extend := func(end int) {
			if end > len(model) {
				model = append(model, make([]byte, end-len(model))...)
			}
		}
		for op := 0; op < 60; op++ {
			off := rng.Intn(24 * PageSize)
			n := 1 + rng.Intn(3*PageSize)
			data := patternData(n, byte(rng.Intn(256)))
			switch rng.Intn(5) {
			case 0: // slow path (quiesces staging internally)
				if _, err := fs.Write(in, uint64(off), data, FlagNone, obs.SpanContext{}); err != nil {
					t.Fatalf("seed %d op %d: write: %v", seed, op, err)
				}
			case 1, 2: // fast path
				if _, err := fs.StageWrite(in, uint64(off), data, FlagNone, obs.SpanContext{}); err != nil {
					t.Fatalf("seed %d op %d: stage: %v", seed, op, err)
				}
			case 3:
				if _, err := fs.Relink(in); err != nil {
					t.Fatalf("seed %d op %d: relink: %v", seed, op, err)
				}
				continue
			case 4:
				cut := rng.Intn(20 * PageSize)
				if err := fs.Truncate(in, uint64(cut), FlagNone, obs.SpanContext{}); err != nil {
					t.Fatalf("seed %d op %d: truncate: %v", seed, op, err)
				}
				if cut < len(model) {
					model = model[:cut]
				} else {
					extend(cut)
				}
				continue
			}
			extend(off + n)
			copy(model[off:], data)
		}
		if got := readFileT(t, fs, in, 0, len(model)+PageSize); !bytes.Equal(got, model) {
			t.Fatalf("seed %d: content diverged from model", seed)
		}
		if err := fs.Fsck(nil); err != nil {
			t.Fatalf("seed %d: fsck: %v", seed, err)
		}
		// Unmount relinks any staged residue; everything must survive.
		if err := fs.Unmount(); err != nil {
			t.Fatalf("seed %d: unmount: %v", seed, err)
		}
		fs2, _, err := Mount(dev)
		if err != nil {
			t.Fatalf("seed %d: remount: %v", seed, err)
		}
		in2, err := fs2.Lookup("f")
		if err != nil {
			t.Fatal(err)
		}
		if got := readFileT(t, fs2, in2, 0, len(model)+PageSize); !bytes.Equal(got, model) {
			t.Fatalf("seed %d: content diverged after remount", seed)
		}
		if err := fs2.Fsck(nil); err != nil {
			t.Fatalf("seed %d: post-remount fsck: %v", seed, err)
		}
	}
}

// TestEnsureLogSpaceSparesSurviveGC: pre-linked spare log pages (reserved
// ahead of the tail) must survive both fast and thorough GC — freeing them
// would dangle the tail page's persistent next pointer.
func TestEnsureLogSpaceSpares(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	in := writeFileT(t, fs, "f", patternData(PageSize, 9))

	// Reserve far more slots than the tail page holds: spare pages get
	// linked past the tail.
	in.mu.Lock()
	err := fs.reserve(in, 2*EntriesPerLogPage+5)
	before := len(in.logPages)
	in.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if before < 3 {
		t.Fatalf("reservation linked %d pages, want >= 3", before)
	}
	if err := fs.Fsck(nil); err != nil {
		t.Fatalf("fsck with spares: %v", err)
	}

	// Appends must walk into the spares without allocating new pages.
	for i := 0; i < 2*EntriesPerLogPage; i++ {
		if _, err := fs.Write(in, 0, patternData(64, byte(i)), FlagNone, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Fsck(nil); err != nil {
		t.Fatalf("fsck after spare appends: %v", err)
	}

	// Thorough GC must carry remaining spares over, not free them.
	fs.ForceThoroughGC(in)
	if err := fs.Fsck(nil); err != nil {
		t.Fatalf("fsck after thorough GC: %v", err)
	}
	if got := readFileT(t, fs, in, 0, PageSize); got[0] != patternData(64, byte(2*EntriesPerLogPage-1))[0] {
		t.Fatal("content lost across GC with spares")
	}
}

// TestDeleteDiscardsStaging: staged-only data dies with the file; nothing
// was allocated for it, so the allocator balance is exactly restored.
func TestDeleteDiscardsStaging(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	free0 := fs.alloc.FreeBlocks()
	in, err := fs.Create("doomed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.StageWrite(in, 0, patternData(4*PageSize, 7), FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	if free1 := fs.alloc.FreeBlocks(); free1 != free0 {
		t.Errorf("free blocks %d -> %d: staged-only delete leaked", free0, free1)
	}
	if err := fs.Fsck(nil); err != nil {
		t.Fatalf("fsck: %v", err)
	}
}

// TestTruncateQuiescesStaging: a truncate below staged data must not let
// replay resurrect the staged bytes past the cut.
func TestTruncateQuiescesStaging(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	in := writeFileT(t, fs, "f", patternData(PageSize, 1))
	if _, err := fs.StageWrite(in, PageSize, patternData(4*PageSize, 2), FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	const cut = PageSize + 100
	if err := fs.Truncate(in, cut, FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if got := in.Size(); got != cut {
		t.Fatalf("size = %d, want %d", got, cut)
	}
	want := patternData(PageSize, 1)
	want = append(want, patternData(4*PageSize, 2)[:100]...)
	if got := readFileT(t, fs, in, 0, 6*PageSize); !bytes.Equal(got, want) {
		t.Fatal("truncate-over-staging content mismatch")
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, _, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := fs2.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	if got := readFileT(t, fs2, in2, 0, 6*PageSize); !bytes.Equal(got, want) {
		t.Fatal("staged bytes resurrected past truncate after remount")
	}
	if err := fs2.Fsck(nil); err != nil {
		t.Fatalf("fsck: %v", err)
	}
}

// TestCommitENOSPC drives every caller of the one commit path out of space,
// at the log-page reservation and at the data allocation, and requires the
// failure to be atomic: nothing appended (no pending tail for the next
// commit to publish), nothing leaked beyond a spare log page the
// reservation may have linked, the staging buffer and the file's content
// untouched, Fsck clean — and the same operation succeeding once a delete
// has freed space.
func TestCommitENOSPC(t *testing.T) {
	t.Parallel()
	base := patternData(2*PageSize, 3)
	page := patternData(PageSize, 7)
	write := func(fs *FS, in *Inode) error {
		_, err := fs.Write(in, PageSize, page, FlagNone, obs.SpanContext{})
		return err
	}
	relink := func(fs *FS, in *Inode) error { _, err := fs.Relink(in); return err }
	truncate := func(fs *FS, in *Inode) error { return fs.Truncate(in, PageSize+7, FlagNone, obs.SpanContext{}) }
	overwritten := append(append([]byte{}, base[:PageSize]...), page...)
	for _, tc := range []struct {
		name     string
		fullTail bool     // the tail log page has no slot left: the commit must reserve a page
		staged   []uint64 // file pages staged before space runs out
		leave    int      // contiguous blocks left free
		spare    int64    // of which the failed commit keeps this many, linked as spare log pages
		op       func(fs *FS, in *Inode) error
		want     []byte // content once the retry succeeds; nil: as before the failure
	}{
		{name: "write at log reservation", fullTail: true, op: write, want: overwritten},
		{name: "write at data allocation", fullTail: true, leave: 1, spare: 1, op: write, want: overwritten},
		{name: "relink at log reservation", fullTail: true, staged: []uint64{2, 3}, op: relink},
		{name: "relink at first extent", staged: []uint64{2, 3}, op: relink},
		{name: "relink at second extent", staged: []uint64{2, 3, 6, 7}, leave: 2, op: relink},
		// A mid-page cut into a mapped page needs a block for the CoW tail remap.
		{name: "truncate at log reservation", fullTail: true, op: truncate, want: base[:PageSize+7]},
		{name: "truncate at tail-remap allocation", op: truncate, want: base[:PageSize+7]},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, fs := mkfsT(t)
			writeFileT(t, fs, "ballast", patternData(8*PageSize, 1))
			in := writeFileT(t, fs, "f", base)
			for tc.fullTail && slotIndex(in.logTail) < EntriesPerLogPage {
				if _, err := fs.Write(in, 0, base[:PageSize], FlagNone, obs.SpanContext{}); err != nil {
					t.Fatal(err)
				}
			}
			if err := stagePagesT(fs, in, tc.staged...); err != nil {
				t.Fatal(err)
			}
			// Drain the allocator, then hand back tc.leave adjacent blocks. The
			// hoard is "held" for fsck purposes (the test is the holder); any
			// OTHER unaccounted block is a real leak.
			var hoard []uint64
			for {
				b, err := fs.alloc.Alloc(0, 1)
				if err != nil {
					break
				}
				hoard = append(hoard, b)
			}
			sort.Slice(hoard, func(i, j int) bool { return hoard[i] < hoard[j] })
			held := make(map[uint64]bool)
			for i, b := range hoard {
				if i < tc.leave {
					if b != hoard[0]+uint64(i) {
						t.Fatalf("hoard %v does not start with %d adjacent blocks", hoard[:tc.leave], tc.leave)
					}
					fs.alloc.Free(b, 1)
					continue
				}
				held[b] = true
			}
			free0 := fs.alloc.FreeBlocks()
			size0 := in.Size()
			before := readFileT(t, fs, in, 0, int(size0)+PageSize)

			if err := tc.op(fs, in); !errors.Is(err, ErrNoSpace) {
				t.Fatalf("with %d free blocks: err = %v, want ErrNoSpace", free0, err)
			}
			in.mu.RLock()
			pending := in.pending
			in.mu.RUnlock()
			if pending != 0 {
				t.Errorf("failed commit left a pending append at %#x", pending)
			}
			if got := fs.alloc.FreeBlocks(); got != free0-tc.spare {
				t.Errorf("failed commit moved the free count %d -> %d, want %d spare log page(s) kept", free0, got, tc.spare)
			}
			if got := in.StagedPages(); got != len(tc.staged) {
				t.Errorf("failed commit left %d staged pages, want %d", got, len(tc.staged))
			}
			if got := readFileT(t, fs, in, 0, int(size0)+PageSize); !bytes.Equal(got, before) {
				t.Error("failed commit changed the file's size or content")
			}
			if err := fs.Fsck(func(b uint64) bool { return held[b] }); err != nil {
				t.Fatalf("fsck after the failure: %v", err)
			}

			if err := fs.Delete("ballast"); err != nil {
				t.Fatal(err)
			}
			if err := tc.op(fs, in); err != nil {
				t.Fatalf("retry with space freed: %v", err)
			}
			want := tc.want
			if want == nil {
				want = before
			}
			if got := readFileT(t, fs, in, 0, int(size0)+PageSize); !bytes.Equal(got, want) {
				t.Error("content mismatch after the retry")
			}
			if got := in.StagedPages(); got != 0 {
				t.Errorf("%d pages still staged after the retry", got)
			}
			if err := fs.Fsck(func(b uint64) bool { return held[b] }); err != nil {
				t.Fatalf("fsck after the retry: %v", err)
			}
		})
	}
}

// TestCrashBeforeRelinkLosesOnlyStaged: a power cut with data staged but
// not relinked recovers to exactly the pre-staging state — DRAM staging
// must be invisible to the persistent image.
func TestCrashBeforeRelinkLosesOnlyStaged(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	base := patternData(2*PageSize, 1)
	in := writeFileT(t, fs, "f", base)
	if _, err := fs.StageWrite(in, uint64(len(base)), patternData(3*PageSize, 2), FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	fs2, _, err := Mount(img)
	if err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	in2, err := fs2.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	if got := in2.Size(); got != uint64(len(base)) {
		t.Fatalf("recovered size = %d, want %d (staged bytes leaked or base lost)", got, len(base))
	}
	if got := readFileT(t, fs2, in2, 0, 6*PageSize); !bytes.Equal(got, base) {
		t.Fatal("recovered content is not exactly the committed base")
	}
	if err := fs2.Fsck(nil); err != nil {
		t.Fatalf("fsck: %v", err)
	}
}
