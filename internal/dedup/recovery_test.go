package dedup

import (
	"bytes"
	"testing"

	"denova/internal/fact"
	"denova/internal/nova"
	"denova/internal/pmem"
)

// Surgical tests for the three §V-C inconsistency-handling windows, driving
// the crash to land in exactly the window each handler covers (the sweep
// tests cover them too, but these document the mechanism).

// TestHandlingI_CrashBeforeFACTTouch: failure before step ③ — the only
// durable change is the dequeued write entry still carrying dedupe_needed.
// Recovery must re-enqueue it.
func TestHandlingI_CrashBeforeFACTTouch(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "a", pages(1))
	r.write(t, "b", pages(1))
	// Crash at the very first persist point of the dedup drain: that is
	// inside the first FACT insert, before anything committed.
	r.dev.SetCrashAfter(1)
	if !pmem.RunToCrash(func() { r.engine.Drain() }) {
		t.Fatal("no crash")
	}
	img := r.dev.CrashImage(pmem.CrashDropDirty, 0)
	rec, rep := attachRig(t, img)
	if rep.Requeued != 2 {
		t.Fatalf("requeued = %d, want 2 (both entries still dedupe_needed)", rep.Requeued)
	}
	if rep.Resumed != 0 {
		t.Fatalf("resumed = %d, want 0 (no transaction reached the log)", rep.Resumed)
	}
	rec.engine.Drain()
	if rec.engine.Stats().PagesDuplicate != 1 {
		t.Fatal("re-run did not deduplicate")
	}
}

// TestHandlingII_ResumeAfterLogCommit: failure after step ⑤ (tail commit,
// flags in_process) and before step ⑥ (UC→RFC). Recovery must transfer the
// pending counts and complete the transaction without re-running it.
func TestHandlingII_ResumeAfterLogCommit(t *testing.T) {
	t.Parallel()
	// Find the crash point where an in_process entry exists at recovery:
	// sweep until the recovery report shows Resumed > 0 — the paper's
	// exact window.
	base := buildCrashBase(t)
	probe := base.Clone()
	rp, _ := attachRig(t, probe)
	start := probe.PersistOps()
	rp.engine.Drain()
	total := probe.PersistOps() - start

	found := false
	for k := int64(1); k <= total && !found; k++ {
		work := base.Clone()
		rw, _ := attachRig(t, work)
		work.SetCrashAfter(k)
		if !pmem.RunToCrash(func() { rw.engine.Drain() }) {
			break
		}
		img := work.CrashImage(pmem.CrashDropDirty, 0)
		rec, rep := attachRig(t, img)
		if rep.Resumed == 0 {
			continue
		}
		found = true
		// The resumed transaction's RFC must be consistent: every shared
		// block's RFC equals the number of write-entry references.
		if err := rec.table.CheckInvariants(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// No UC survives recovery.
		for i := int64(0); i < rec.table.TotalEntries(); i++ {
			if rec.table.UC(uint64(i)) != 0 {
				t.Fatalf("k=%d: UC leaked", k)
			}
		}
		// Content intact and the rest of the queue still processable.
		rec.engine.Drain()
		want := pages(1, 2, 3)
		if !bytes.Equal(rec.read(t, "a", len(want)), want) {
			t.Fatalf("k=%d: content lost", k)
		}
	}
	if !found {
		t.Fatal("no crash point produced an in_process entry; Handling II window untested")
	}
}

// TestHandlingIII_TargetStillNeededAfterCommit: the engine's re-processing
// path (owned pages abort their UC) is covered by
// TestReprocessingIsIdempotent; here we confirm the recovery report counts
// such re-enqueued entries as Requeued, not Resumed.
func TestHandlingIII_RequeuedNotResumed(t *testing.T) {
	t.Parallel()
	r := newRig(t)
	r.write(t, "solo", pages(9, 9)) // intra-file duplicate
	node := r.engine.DWQ().DequeueBatch(0)[0]
	r.engine.ProcessEntry(node, new(Scratch))
	// Force the paper's window: target entry back to dedupe_needed (as if
	// the crash hit between step ⑤ and the target's flag update).
	nova.SetDedupeFlag(r.dev, node.EntryOff, nova.FlagNeeded)
	img := r.dev.CrashImage(pmem.CrashKeepDirty, 0)
	rec, rep := attachRig(t, img)
	if rep.Requeued != 1 {
		t.Fatalf("requeued = %d, want 1", rep.Requeued)
	}
	rec.engine.Drain()
	if rec.engine.Stats().PagesOwned == 0 {
		t.Fatal("re-processing did not detect owned pages")
	}
	want := pages(9, 9)
	if !bytes.Equal(rec.read(t, "solo", len(want)), want) {
		t.Fatal("content damaged")
	}
	if err := rec.table.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInlineCrashSweep crashes at every persist point of an inline-dedup
// write (the DENOVA-Inline baseline must be crash-consistent too: its
// transactions use the same UC/RFC discipline).
func TestInlineCrashSweep(t *testing.T) {
	t.Parallel()
	prep := func() *rig {
		r := newRig(t)
		in, err := r.fs.Create("base")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.engine.WriteInline(in, 0, pages(1, 2)); err != nil {
			t.Fatal(err)
		}
		return r
	}
	op := func(r *rig) {
		in, err := r.fs.Create("twin")
		if err != nil {
			return
		}
		r.engine.WriteInline(in, 0, pages(1, 3)) // page 0 duplicates base's
	}
	probe := prep()
	start := probe.dev.PersistOps()
	op(probe)
	total := probe.dev.PersistOps() - start
	if total == 0 {
		t.Fatal("no persist points")
	}

	wantBase := pages(1, 2)
	for k := int64(1); k <= total; k++ {
		r := prep()
		r.dev.SetCrashAfter(k)
		pmem.RunToCrash(func() { op(r) })
		img := r.dev.CrashImage(pmem.CrashDropDirty, k)
		rec, _ := attachRig(t, img)
		if err := rec.table.CheckInvariants(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !bytes.Equal(rec.read(t, "base", len(wantBase)), wantBase) {
			t.Fatalf("k=%d: pre-existing file corrupted", k)
		}
		// If "twin" is visible, its committed prefix must be correct and
		// must still share page 0 with base once contents agree.
		if in, err := rec.fs.Lookup("twin"); err == nil && in.Size() > 0 {
			got := rec.read(t, "twin", int(in.Size()))
			want := pages(1, 3)[:in.Size()]
			if !bytes.Equal(got, want) {
				t.Fatalf("k=%d: twin content wrong", k)
			}
		}
	}
}

// TestFACTSizingGuarantee validates the §IV-C worst-case rule: with
// n = ceil(log2(data blocks)) the DAA covers every block and the IAA has
// one slot per block, so even if EVERY data block holds unique content —
// and no matter how the fingerprint prefixes collide — the table can
// never run out of slots. (ErrTableFull is reachable only with a
// mis-sized table; the fact package's own tests cover that path.)
func TestFACTSizingGuarantee(t *testing.T) {
	t.Parallel()
	const numData = 64
	dev := pmem.New(32<<20, pmem.ProfileZero)
	table := fact.New(dev, fact.Config{
		Base:       0,
		PrefixBits: 6, // 2^6 = numData: the paper's exact sizing
		DataStart:  1000,
		NumData:    numData,
	})
	table.ZeroFill()
	gen := func(i int) fact.FP {
		return Strong(pages(byte(i + 1)))
	}
	for i := 0; i < numData; i++ {
		res, err := table.BeginTxn(gen(i), 1000+uint64(i))
		if err != nil {
			t.Fatalf("insert %d: %v (sizing guarantee violated)", i, err)
		}
		if res.Dup {
			t.Fatalf("insert %d: unexpected duplicate", i)
		}
		table.CommitTxn(res.Idx)
	}
	if err := table.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := table.LiveEntries(); got != numData {
		t.Fatalf("LiveEntries = %d, want %d", got, numData)
	}
}
