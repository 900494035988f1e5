package fact

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"denova/internal/pmem"
)

// Test tables use a tiny geometry: 6 prefix bits (64 DAA + 64 IAA entries),
// data blocks numbered [1000, 1000+64).
const (
	tPrefixBits = 6
	tDataStart  = 1000
	tNumData    = 64
)

func newTable(t testing.TB) (*pmem.Device, *Table) {
	t.Helper()
	dev := pmem.New(64*pmem.PageSize, pmem.ProfileZero)
	tab := New(dev, Config{Base: 0, PrefixBits: tPrefixBits, DataStart: tDataStart, NumData: tNumData})
	tab.ZeroFill()
	return dev, tab
}

// fpWithPrefix builds a fingerprint whose first 6 bits are p and whose tail
// bytes are tag (so distinct tags give distinct fingerprints).
func fpWithPrefix(p uint64, tag byte) FP {
	var fp FP
	fp[0] = byte(p << (8 - tPrefixBits))
	fp[19] = tag
	fp[18] = tag ^ 0x5A
	return fp
}

func mustBegin(t *testing.T, tab *Table, fp FP, block uint64) TxnResult {
	t.Helper()
	res, err := tab.BeginTxn(fp, block)
	if err != nil {
		t.Fatalf("BeginTxn: %v", err)
	}
	return res
}

// decRef releases one block — a batch of one — and reports whether the
// table handed it to free.
func decRef(tab *Table, block uint64) (freed bool) {
	tab.DecRefBatch([]uint64{block}, func(uint64) { freed = true })
	return freed
}

// recoverAll runs both recovery calls with no resumed transaction and
// every block in use: chain repair, orphans, free list, delete pointers and
// the UC discard.
func recoverAll(t testing.TB, tab *Table) RecoverStats {
	t.Helper()
	rs, _, err := tab.Sweep(tab.WalkChains(), nil, func(uint64) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func checkInv(t *testing.T, tab *Table) {
	t.Helper()
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixOf(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	var fp FP
	fp[0] = 0xFF
	if got := tab.PrefixOf(fp); got != 63 {
		t.Fatalf("PrefixOf(0xFF...) = %d, want 63", got)
	}
	fp[0] = 0x04 // 000001xx -> prefix 1
	if got := tab.PrefixOf(fp); got != 1 {
		t.Fatalf("PrefixOf(0x04...) = %d, want 1", got)
	}
}

func TestInsertUniqueAndCommit(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	fp := fpWithPrefix(5, 1)
	res := mustBegin(t, tab, fp, tDataStart+3)
	if res.Dup {
		t.Fatal("fresh fingerprint reported as duplicate")
	}
	if res.Idx != 5 {
		t.Fatalf("unique entry not in DAA slot 5: %d", res.Idx)
	}
	if rfc, uc := tab.RFC(res.Idx), tab.UC(res.Idx); rfc != 0 || uc != 1 {
		t.Fatalf("after begin: rfc=%d uc=%d", rfc, uc)
	}
	if !tab.CommitTxn(res.Idx) {
		t.Fatal("commit failed")
	}
	if tab.RFC(res.Idx) != 1 || tab.UC(res.Idx) != 0 {
		t.Fatalf("after commit: RFC=%d UC=%d", tab.RFC(res.Idx), tab.UC(res.Idx))
	}
	checkInv(t, tab)
}

func TestCommitTxnWithoutPendingUC(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	res := mustBegin(t, tab, fpWithPrefix(1, 1), tDataStart)
	tab.CommitTxn(res.Idx)
	if tab.CommitTxn(res.Idx) {
		t.Fatal("second commit succeeded with UC=0")
	}
}

func TestDuplicateDetection(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	fp := fpWithPrefix(9, 7)
	a := mustBegin(t, tab, fp, tDataStart+1)
	tab.CommitTxn(a.Idx)
	b := mustBegin(t, tab, fp, tDataStart+2) // same content, new block
	if !b.Dup {
		t.Fatal("duplicate not detected")
	}
	if b.Canonical != tDataStart+1 {
		t.Fatalf("canonical = %d, want %d", b.Canonical, tDataStart+1)
	}
	tab.CommitTxn(b.Idx)
	if tab.RFC(b.Idx) != 2 {
		t.Fatalf("RFC = %d, want 2", tab.RFC(b.Idx))
	}
	checkInv(t, tab)
}

func TestPrefixCollisionGoesToIAA(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	a := mustBegin(t, tab, fpWithPrefix(3, 1), tDataStart+1)
	b := mustBegin(t, tab, fpWithPrefix(3, 2), tDataStart+2)
	c := mustBegin(t, tab, fpWithPrefix(3, 3), tDataStart+3)
	if a.Idx != 3 {
		t.Fatalf("first entry not in DAA: %d", a.Idx)
	}
	if int64(b.Idx) < tab.DAAEntries() || int64(c.Idx) < tab.DAAEntries() {
		t.Fatalf("collisions not in IAA: %d %d", b.Idx, c.Idx)
	}
	chain := tab.ChainOf(3)
	if len(chain) != 3 || chain[0] != 3 || chain[1] != b.Idx || chain[2] != c.Idx {
		t.Fatalf("chain = %v", chain)
	}
	// All three remain individually findable.
	for i, fp := range []FP{fpWithPrefix(3, 1), fpWithPrefix(3, 2), fpWithPrefix(3, 3)} {
		res := mustBegin(t, tab, fp, tDataStart+10+uint64(i))
		if !res.Dup {
			t.Fatalf("entry %d lost after collisions", i)
		}
	}
	checkInv(t, tab)
}

func TestWalkLenGrowsWithChain(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	for i := byte(1); i <= 4; i++ {
		mustBegin(t, tab, fpWithPrefix(8, i), tDataStart+uint64(i))
	}
	res := mustBegin(t, tab, fpWithPrefix(8, 4), tDataStart+20)
	if res.WalkLen != 4 {
		t.Fatalf("WalkLen = %d, want 4", res.WalkLen)
	}
}

func TestDecRefNoEntry(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	if !decRef(tab, tDataStart+30) {
		t.Fatal("block with no FACT entry not freed")
	}
}

func TestDecRefLifecycle(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	fp := fpWithPrefix(4, 1)
	a := mustBegin(t, tab, fp, tDataStart+4)
	tab.CommitTxn(a.Idx)
	b := mustBegin(t, tab, fp, tDataStart+5)
	tab.CommitTxn(b.Idx) // RFC=2 on canonical block tDataStart+4

	if decRef(tab, tDataStart+4) || tab.RFC(a.Idx) != 1 {
		t.Fatalf("first decrement: freed or RFC = %d, want kept with RFC 1", tab.RFC(a.Idx))
	}
	if !decRef(tab, tDataStart+4) {
		t.Fatal("last reference dropped but block not freed")
	}
	// Entry gone: the block now has no FACT entry.
	if _, ok := tab.DeletePtr(tDataStart + 4); ok {
		t.Fatal("delete pointer survived entry removal")
	}
	if tab.LiveEntries() != 0 {
		t.Fatalf("LiveEntries = %d", tab.LiveEntries())
	}
	checkInv(t, tab)
}

func TestDecRefKeepsBlockWhileTxnInFlight(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	fp := fpWithPrefix(7, 1)
	a := mustBegin(t, tab, fp, tDataStart+7)
	tab.CommitTxn(a.Idx) // RFC=1
	// A second transaction begins (UC=1) but has not committed.
	mustBegin(t, tab, fp, tDataStart+8)
	if decRef(tab, tDataStart+7) { // drops RFC to 0 while UC=1
		t.Fatal("block freed under an in-flight transaction")
	}
	// Commit arrives: RFC back to 1.
	tab.CommitTxn(a.Idx)
	if tab.RFC(a.Idx) != 1 {
		t.Fatalf("RFC = %d after late commit", tab.RFC(a.Idx))
	}
	checkInv(t, tab)
}

func TestRemoveMiddleOfChain(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	var blocks []uint64
	for i := byte(1); i <= 3; i++ {
		b := tDataStart + uint64(i)
		res := mustBegin(t, tab, fpWithPrefix(2, i), b)
		tab.CommitTxn(res.Idx)
		blocks = append(blocks, b)
	}
	// Remove the middle entry.
	if !decRef(tab, blocks[1]) {
		t.Fatal("middle entry not freed")
	}
	chain := tab.ChainOf(2)
	if len(chain) != 2 {
		t.Fatalf("chain after removal = %v", chain)
	}
	// First and last remain findable.
	for _, i := range []byte{1, 3} {
		if res := mustBegin(t, tab, fpWithPrefix(2, i), tDataStart+40); !res.Dup {
			t.Fatalf("entry %d lost after middle removal", i)
		}
	}
	checkInv(t, tab)
}

func TestRemoveDAAHeadKeepsChainAnchored(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	a := mustBegin(t, tab, fpWithPrefix(6, 1), tDataStart+1)
	tab.CommitTxn(a.Idx)
	b := mustBegin(t, tab, fpWithPrefix(6, 2), tDataStart+2)
	tab.CommitTxn(b.Idx)
	// Remove the head (DAA) entry; the IAA entry must stay reachable.
	if !decRef(tab, tDataStart+1) {
		t.Fatal("head not freed")
	}
	res := mustBegin(t, tab, fpWithPrefix(6, 2), tDataStart+30)
	if !res.Dup {
		t.Fatal("IAA entry lost when DAA head was removed")
	}
	// A new fingerprint with the same prefix reclaims the empty head.
	res2 := mustBegin(t, tab, fpWithPrefix(6, 3), tDataStart+3)
	if res2.Idx != 6 {
		t.Fatalf("empty DAA head not reclaimed: idx=%d", res2.Idx)
	}
	checkInv(t, tab)
}

func TestIAAExhaustion(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	// Fill the DAA slot and all 64 IAA slots with one prefix.
	var err error
	n := 0
	for i := 0; i < 70; i++ {
		_, err = tab.BeginTxn(fpWithPrefix(1, byte(i+1)), tDataStart+uint64(i%tNumData))
		if err != nil {
			break
		}
		n++
	}
	if err != ErrTableFull {
		t.Fatalf("expected ErrTableFull, got %v after %d inserts", err, n)
	}
	if n != 65 { // 1 DAA + 64 IAA
		t.Fatalf("inserted %d entries before exhaustion, want 65", n)
	}
}

func TestReorderChainByRFC(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	// Build chain: head(a) -> b -> c -> d with RFCs 1, 1, 3, 2.
	type item struct {
		tag byte
		rfc int
	}
	items := []item{{1, 1}, {2, 1}, {3, 3}, {4, 2}}
	idxs := map[byte]uint64{}
	for i, it := range items {
		fp := fpWithPrefix(10, it.tag)
		res := mustBegin(t, tab, fp, tDataStart+uint64(i))
		tab.CommitTxn(res.Idx)
		idxs[it.tag] = res.Idx
		for r := 1; r < it.rfc; r++ {
			d := mustBegin(t, tab, fp, tDataStart+50)
			tab.CommitTxn(d.Idx)
		}
	}
	if !tab.ReorderChain(10) {
		t.Fatal("reorder reported no-op")
	}
	chain := tab.ChainOf(10)
	// Head (tag 1) fixed; IAA sorted by RFC desc: c(3), d(2), b(1).
	want := []uint64{idxs[1], idxs[3], idxs[4], idxs[2]}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain after reorder = %v, want %v", chain, want)
		}
	}
	// Hot entry now found in 2 steps.
	res := mustBegin(t, tab, fpWithPrefix(10, 3), tDataStart+51)
	if res.WalkLen != 2 {
		t.Fatalf("hot entry walk = %d, want 2", res.WalkLen)
	}
	checkInv(t, tab)
}

func TestReorderNoopOnShortOrSortedChains(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	mustBegin(t, tab, fpWithPrefix(11, 1), tDataStart+1)
	if tab.ReorderChain(11) {
		t.Fatal("reordered a head-only chain")
	}
	mustBegin(t, tab, fpWithPrefix(11, 2), tDataStart+2)
	if tab.ReorderChain(11) {
		t.Fatal("reordered a single-overflow chain")
	}
}

func TestPendingReordersTriggerPolicy(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	tab.DepthThreshold = 2
	tab.RFCThreshold = 2
	for i := byte(1); i <= 4; i++ {
		res := mustBegin(t, tab, fpWithPrefix(12, i), tDataStart+uint64(i))
		tab.CommitTxn(res.Idx)
	}
	// Hit the deepest entry repeatedly: crosses both thresholds.
	for r := 0; r < 3; r++ {
		res := mustBegin(t, tab, fpWithPrefix(12, 4), tDataStart+60)
		tab.CommitTxn(res.Idx)
	}
	pending := tab.PendingReorders()
	found := false
	for _, p := range pending {
		if p == 12 {
			found = true
		}
	}
	if !found {
		t.Fatalf("chain 12 not flagged for reorder: %v", pending)
	}
	if len(tab.PendingReorders()) != 0 {
		t.Fatal("drain did not clear pending set")
	}
}

func TestReorderCrashSweep(t *testing.T) {
	t.Parallel()
	// Crash at every persist point inside ReorderChain; after recovery the
	// chain must contain exactly the same entries, consistently linked.
	build := func() (*pmem.Device, *Table, map[uint64]bool) {
		dev, tab := newTable(t)
		members := map[uint64]bool{}
		for i := byte(1); i <= 5; i++ {
			fp := fpWithPrefix(20, i)
			res, err := tab.BeginTxn(fp, tDataStart+uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			tab.CommitTxn(res.Idx)
			members[res.Idx] = true
			for r := 0; r < int(i); r++ { // varied RFCs force a real reorder
				d, _ := tab.BeginTxn(fp, tDataStart+60)
				tab.CommitTxn(d.Idx)
			}
		}
		return dev, tab, members
	}
	// Count persist points of one reorder.
	dev0, tab0, _ := build()
	before := dev0.PersistOps()
	if !tab0.ReorderChain(20) {
		t.Fatal("reorder was a no-op; test needs a real reorder")
	}
	total := dev0.PersistOps() - before

	for k := int64(1); k <= total; k++ {
		dev, tab, members := build()
		dev.SetCrashAfter(dev.PersistOps() - dev.PersistOps() + k + (dev.PersistOps() * 0)) // k persist points from now
		dev.SetCrashAfter(k)
		crashed := pmem.RunToCrash(func() { tab.ReorderChain(20) })
		if !crashed {
			t.Fatalf("k=%d: no crash (total=%d)", k, total)
		}
		img := dev.CrashImage(pmem.CrashDropDirty, k)
		rt := Attach(img, Config{Base: 0, PrefixBits: tPrefixBits, DataStart: tDataStart, NumData: tNumData})
		recoverAll(t, rt)
		if err := rt.CheckInvariants(); err != nil {
			t.Fatalf("k=%d: invariants violated after recovery: %v", k, err)
		}
		chain := rt.ChainOf(20)
		got := map[uint64]bool{}
		for _, idx := range chain[1:] {
			got[idx] = true
		}
		got[chain[0]] = true
		if len(got) != len(members)+0 {
			t.Fatalf("k=%d: chain lost/gained entries: %v", k, chain)
		}
		for idx := range members {
			if !got[idx] {
				t.Fatalf("k=%d: entry %d missing after recovery", k, idx)
			}
		}
	}
}

func TestInsertCrashSweep(t *testing.T) {
	t.Parallel()
	// Crash at every persist point of a unique-chunk insert — into an empty
	// DAA head, behind an occupied head, and at the tail of a longer chain —
	// under every cache-survival mode. The entry's line is stored field by
	// field and flushed once, so an image may hold it whole, not at all, or
	// (evicted early) whole but unlinked; recovery must always restore the
	// invariants, keep the committed entries, and discard the open insert.
	for _, tc := range []struct {
		name      string
		committed int // entries already in chain 30
	}{{"empty head", 0}, {"behind the head", 1}, {"chain tail", 3}} {
		prep := func() (*pmem.Device, *Table) {
			dev, tab := newTable(t)
			for i := 1; i <= tc.committed; i++ {
				res := mustBegin(t, tab, fpWithPrefix(30, byte(i)), tDataStart+uint64(i))
				tab.CommitTxn(res.Idx)
			}
			return dev, tab
		}
		insert := func(tab *Table) { tab.BeginTxn(fpWithPrefix(30, 99), tDataStart+20) }
		dev0, tab0 := prep()
		base := dev0.PersistOps()
		insert(tab0)
		total := dev0.PersistOps() - base

		for k := int64(1); k <= total; k++ {
			for _, m := range []struct {
				mode pmem.CrashMode
				seed int64
			}{{pmem.CrashDropDirty, 0}, {pmem.CrashKeepDirty, 0}, {pmem.CrashEvictRandom, 7919*k + 1}, {pmem.CrashEvictRandom, 7919*k + 2}} {
				tag := fmt.Sprintf("%s k=%d/%d mode=%d seed=%d", tc.name, k, total, m.mode, m.seed)
				dev, tab := prep()
				dev.SetCrashAfter(k)
				if !pmem.RunToCrash(func() { insert(tab) }) {
					t.Fatalf("%s: no crash", tag)
				}
				img := dev.CrashImage(m.mode, m.seed)
				rt := Attach(img, Config{Base: 0, PrefixBits: tPrefixBits, DataStart: tDataStart, NumData: tNumData})
				recoverAll(t, rt)
				if err := rt.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				for i := 1; i <= tc.committed; i++ {
					idx, block, ok := rt.Lookup(fpWithPrefix(30, byte(i)))
					if !ok || block != tDataStart+uint64(i) || rt.RFC(idx) != 1 {
						t.Fatalf("%s: committed entry %d lost or damaged (found=%v block=%d)", tag, i, ok, block)
					}
				}
				if _, _, ok := rt.Lookup(fpWithPrefix(30, 99)); ok {
					t.Fatalf("%s: uncommitted insert survived recovery", tag)
				}
				if got, want := rt.LiveEntries(), int64(tc.committed); got != want {
					t.Fatalf("%s: %d live entries, want %d", tag, got, want)
				}
			}
		}
	}
}

func TestZeroAllUCDropsUncommitted(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	a := mustBegin(t, tab, fpWithPrefix(1, 1), tDataStart+1) // never committed
	b := mustBegin(t, tab, fpWithPrefix(2, 1), tDataStart+2)
	tab.CommitTxn(b.Idx)
	c := mustBegin(t, tab, fpWithPrefix(2, 1), tDataStart+3) // dup txn, uncommitted
	_ = a
	_ = c
	rs := recoverAll(t, tab)
	if rs.UCsDiscarded != 2 {
		t.Fatalf("UCsDiscarded = %d, want 2", rs.UCsDiscarded)
	}
	if rs.EntriesDropped != 1 {
		t.Fatalf("EntriesDropped = %d, want 1 (the never-committed insert)", rs.EntriesDropped)
	}
	if tab.RFC(b.Idx) != 1 || tab.UC(b.Idx) != 0 {
		t.Fatalf("committed entry damaged: RFC=%d UC=%d", tab.RFC(b.Idx), tab.UC(b.Idx))
	}
	checkInv(t, tab)
}

func TestScrubDropsFreedBlocks(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	a := mustBegin(t, tab, fpWithPrefix(1, 1), tDataStart+1)
	tab.CommitTxn(a.Idx)
	b := mustBegin(t, tab, fpWithPrefix(2, 1), tDataStart+2)
	tab.CommitTxn(b.Idx)
	dropped := tab.Scrub(func(block uint64) bool { return block == tDataStart+1 })
	if len(dropped) != 1 || dropped[0] != tDataStart+2 {
		t.Fatalf("scrub dropped %v, want [%d]", dropped, tDataStart+2)
	}
	if tab.LiveEntries() != 1 {
		t.Fatalf("LiveEntries = %d", tab.LiveEntries())
	}
	checkInv(t, tab)
}

func TestRecoverStructureRebuildsIAAFreeList(t *testing.T) {
	t.Parallel()
	dev, tab := newTable(t)
	for i := byte(1); i <= 5; i++ { // head + 4 IAA
		res := mustBegin(t, tab, fpWithPrefix(3, i), tDataStart+uint64(i))
		tab.CommitTxn(res.Idx)
	}
	img := dev.CrashImage(pmem.CrashKeepDirty, 0)
	rt := Attach(img, Config{Base: 0, PrefixBits: tPrefixBits, DataStart: tDataStart, NumData: tNumData})
	recoverAll(t, rt)
	if got, want := rt.IAAFree(), int(rt.DAAEntries())-4; got != want {
		t.Fatalf("IAAFree = %d, want %d", got, want)
	}
	checkInv(t, rt)
}

func TestStatsCounters(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	fp := fpWithPrefix(5, 5)
	a := mustBegin(t, tab, fp, tDataStart+5)
	tab.CommitTxn(a.Idx)
	b := mustBegin(t, tab, fp, tDataStart+6)
	tab.CommitTxn(b.Idx)
	decRef(tab, tDataStart+5)
	s := tab.Stats()
	if s.Lookups != 2 || s.Inserts != 1 || s.DupHits != 1 || s.Commits != 2 || s.DecRefs != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgWalk() <= 0 {
		t.Fatal("AvgWalk not positive")
	}
	tab.ResetStats()
	if tab.Stats().Lookups != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

// Property: the table agrees with a reference map under random begin/commit/
// decref streams, and invariants always hold.
func TestPropertyFACTMatchesModel(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, tab := newTable(t)
		type ref struct {
			canonical uint64
			rfc       int
		}
		model := map[FP]*ref{}   // committed state
		owner := map[uint64]FP{} // block -> fp of its FACT entry
		var freeBlocks []uint64
		for b := uint64(0); b < tNumData; b++ {
			freeBlocks = append(freeBlocks, tDataStart+b)
		}
		for step := 0; step < 300; step++ {
			switch rng.Intn(3) {
			case 0, 1: // dedup transaction on a random fingerprint
				if len(freeBlocks) == 0 {
					continue
				}
				fp := fpWithPrefix(uint64(rng.Intn(8)), byte(rng.Intn(6)+1))
				blk := freeBlocks[len(freeBlocks)-1]
				res, err := tab.BeginTxn(fp, blk)
				if err != nil {
					return false
				}
				m := model[fp]
				if (m != nil) != res.Dup {
					return false
				}
				tab.CommitTxn(res.Idx)
				if m == nil {
					freeBlocks = freeBlocks[:len(freeBlocks)-1] // consumed
					model[fp] = &ref{canonical: blk, rfc: 1}
					owner[blk] = fp
				} else {
					if res.Canonical != m.canonical {
						return false
					}
					m.rfc++
				}
			case 2: // reclaim a reference
				if len(owner) == 0 {
					continue
				}
				var blk uint64
				for b := range owner {
					blk = b
					break
				}
				fp := owner[blk]
				m := model[fp]
				if _, ok := tab.DeletePtr(blk); !ok {
					return false
				}
				freed := decRef(tab, blk)
				m.rfc--
				if freed != (m.rfc == 0) {
					return false
				}
				if freed {
					delete(model, fp)
					delete(owner, blk)
					freeBlocks = append(freeBlocks, blk)
				}
			}
			if rng.Intn(20) == 0 {
				if err := tab.CheckInvariants(); err != nil {
					return false
				}
			}
		}
		// Final check: every modeled fingerprint is findable with the right
		// canonical block and RFC.
		for fp, m := range model {
			res, err := tab.BeginTxn(fp, tDataStart) // probe (leaves UC; fine)
			if err != nil || !res.Dup || res.Canonical != m.canonical {
				return false
			}
			if int(tab.RFC(res.Idx)) != m.rfc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTxnAndDecRefStress hammers the table from multiple
// goroutines — dedup transactions against a hot working set racing
// reclaims — and checks structural invariants plus exact count accounting
// afterwards.
func TestConcurrentTxnAndDecRefStress(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	const workers = 6
	const perWorker = 400
	// Shared working set: 8 fingerprints, one per prefix, canonical blocks
	// pre-committed so they cannot vanish mid-test (floor RFC of 1 each).
	fps := make([]FP, 8)
	blocks := make([]uint64, 8)
	for i := range fps {
		fps[i] = fpWithPrefix(uint64(i*3), byte(i+1))
		blocks[i] = tDataStart + uint64(i)
		res, err := tab.BeginTxn(fps[i], blocks[i])
		if err != nil {
			t.Fatal(err)
		}
		tab.CommitTxn(res.Idx)
	}
	var wg sync.WaitGroup
	var commits, decrefs int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				k := rng.Intn(len(fps))
				if rng.Intn(3) < 2 {
					res, err := tab.BeginTxn(fps[k], tDataStart+40)
					if err != nil {
						t.Error(err)
						return
					}
					tab.CommitTxn(res.Idx)
					atomic.AddInt64(&commits, 1)
				} else {
					if decRef(tab, blocks[k]) {
						// RFC floor reached zero concurrently; re-seed so the
						// content stays resident for other workers.
						nr, err := tab.BeginTxn(fps[k], blocks[k])
						if err != nil {
							t.Error(err)
							return
						}
						tab.CommitTxn(nr.Idx)
						atomic.AddInt64(&commits, 1)
					}
					atomic.AddInt64(&decrefs, 1)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Conservation: initial 8 + commits - (decrefs that actually decremented).
	// DecRef on a removed+reseeded entry complicates exact accounting, so
	// check the weaker but still sharp invariant: total RFC equals
	// 8 + commits - effectiveDecrefs, where effectiveDecrefs is derived.
	var totalRFC int64
	for i := int64(0); i < tab.TotalEntries(); i++ {
		totalRFC += int64(tab.RFC(uint64(i)))
	}
	s := tab.Stats()
	// Every unit of RFC in the table entered through a counted CommitTxn
	// (including the seeds) and left through a counted DecRef decrement.
	expect := s.Commits - s.DecRefs
	if totalRFC != expect {
		t.Fatalf("RFC conservation violated: total=%d, want %d (commits=%d decrefs=%d)",
			totalRFC, expect, s.Commits, s.DecRefs)
	}
	// No UC may remain.
	for i := int64(0); i < tab.TotalEntries(); i++ {
		if tab.UC(uint64(i)) != 0 {
			t.Fatalf("UC leaked on entry %d", i)
		}
	}
}

// TestRemoveCrashSweep crashes at every persist point of a chain-middle
// entry removal (the paper's "three cache line flushes" path) and checks
// that recovery restores a consistent chain with the surviving entries
// findable.
func TestRemoveCrashSweep(t *testing.T) {
	t.Parallel()
	// Crash at every persist point of a last-reference removal — of the DAA
	// head, a mid-chain IAA node and the chain tail — under every
	// cache-survival mode (a removal's zeroed counts word sits unflushed in
	// the cache until the wipe goes out with it, so eviction can expose it
	// early). The other three entries must stay findable.
	build := func() (*pmem.Device, *Table) {
		dev, tab := newTable(t)
		for i := byte(1); i <= 4; i++ {
			res, err := tab.BeginTxn(fpWithPrefix(15, i), tDataStart+uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			tab.CommitTxn(res.Idx)
		}
		return dev, tab
	}
	for _, victim := range []byte{1, 2, 4} {
		dev0, tab0 := build()
		start := dev0.PersistOps()
		if !decRef(tab0, tDataStart+uint64(victim)) {
			t.Fatal("setup: block not freed")
		}
		total := dev0.PersistOps() - start

		for k := int64(1); k <= total; k++ {
			for _, m := range []struct {
				mode pmem.CrashMode
				seed int64
			}{{pmem.CrashDropDirty, 0}, {pmem.CrashKeepDirty, 0}, {pmem.CrashEvictRandom, 104729*k + 1}, {pmem.CrashEvictRandom, 104729*k + 2}} {
				tag := fmt.Sprintf("victim=%d k=%d/%d mode=%d seed=%d", victim, k, total, m.mode, m.seed)
				dev, tab := build()
				dev.SetCrashAfter(k)
				pmem.RunToCrash(func() { decRef(tab, tDataStart+uint64(victim)) })
				img := dev.CrashImage(m.mode, m.seed)
				rt := Attach(img, Config{Base: 0, PrefixBits: tPrefixBits, DataStart: tDataStart, NumData: tNumData})
				recoverAll(t, rt)
				if err := rt.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				for i := byte(1); i <= 4; i++ {
					if i == victim {
						continue
					}
					res, err := rt.BeginTxn(fpWithPrefix(15, i), tDataStart+40)
					if err != nil || !res.Dup {
						t.Fatalf("%s: entry %d lost (dup=%v err=%v)", tag, i, res.Dup, err)
					}
					rt.AbortTxn(res.Idx)
				}
				if err := rt.CheckInvariants(); err != nil {
					t.Fatalf("%s after probes: %v", tag, err)
				}
			}
		}
	}
}

// TestAbortTxn covers the explicit abort path.
func TestAbortTxn(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	res := mustBegin(t, tab, fpWithPrefix(9, 1), tDataStart+1)
	if !tab.AbortTxn(res.Idx) {
		t.Fatal("abort failed with pending UC")
	}
	if tab.AbortTxn(res.Idx) {
		t.Fatal("second abort succeeded with UC=0")
	}
	if tab.RFC(res.Idx) != 0 {
		t.Fatal("abort changed the RFC")
	}
}

// TestLookupReadOnly confirms Lookup finds entries without mutating counts.
func TestLookupReadOnly(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	res := mustBegin(t, tab, fpWithPrefix(8, 1), tDataStart+8)
	tab.CommitTxn(res.Idx)
	idx, canonical, found := tab.Lookup(fpWithPrefix(8, 1))
	if !found || idx != res.Idx || canonical != tDataStart+8 {
		t.Fatalf("Lookup = %d,%d,%v", idx, canonical, found)
	}
	if tab.RFC(idx) != 1 || tab.UC(idx) != 0 {
		t.Fatal("Lookup mutated counts")
	}
	if _, _, found := tab.Lookup(fpWithPrefix(8, 2)); found {
		t.Fatal("Lookup found a phantom")
	}
}

func TestRecoverStructureTruncatesCycle(t *testing.T) {
	t.Parallel()
	dev, tab := newTable(t)
	// Head + two IAA members, all committed.
	var idxs []uint64
	for i := byte(1); i <= 3; i++ {
		res := mustBegin(t, tab, fpWithPrefix(5, i), tDataStart+uint64(i))
		tab.CommitTxn(res.Idx)
		idxs = append(idxs, res.Idx)
	}
	// Corrupt the tail's next pointer back into the chain, forming a cycle
	// (as an interrupted reorder on a corrupted image could).
	tab.setNext(idxs[2], idxs[1])

	img := dev.CrashImage(pmem.CrashKeepDirty, 0)
	rt := Attach(img, Config{Base: 0, PrefixBits: tPrefixBits, DataStart: tDataStart, NumData: tNumData})
	recoverAll(t, rt) // must terminate
	chain := rt.ChainOf(5)
	if len(chain) != 3 {
		t.Fatalf("chain after cycle truncation = %v, want the 3 real members", chain)
	}
	if got := rt.EntryAt(chain[2]).Next; got != None {
		t.Fatalf("tail next = %d after truncation, want None", got)
	}
	for i := byte(1); i <= 3; i++ {
		if _, _, found := rt.Lookup(fpWithPrefix(5, i)); !found {
			t.Fatalf("entry %d lost by cycle truncation", i)
		}
	}
	checkInv(t, rt)
}

func TestRecoverStructureSelfCycle(t *testing.T) {
	t.Parallel()
	dev, tab := newTable(t)
	res := mustBegin(t, tab, fpWithPrefix(9, 1), tDataStart+1)
	tab.CommitTxn(res.Idx)
	b := mustBegin(t, tab, fpWithPrefix(9, 2), tDataStart+2)
	tab.CommitTxn(b.Idx)
	tab.setNext(b.Idx, b.Idx) // IAA member points at itself

	img := dev.CrashImage(pmem.CrashKeepDirty, 0)
	rt := Attach(img, Config{Base: 0, PrefixBits: tPrefixBits, DataStart: tDataStart, NumData: tNumData})
	recoverAll(t, rt)
	if chain := rt.ChainOf(9); len(chain) != 2 {
		t.Fatalf("chain = %v, want head + 1 member", chain)
	}
	checkInv(t, rt)
}

// TestRecoveryWorkersDeterministic runs both recovery calls over clones of
// one messy image with 1 and 8 workers: the stats and the resulting
// persistent image must match exactly.
func TestRecoveryWorkersDeterministic(t *testing.T) {
	t.Parallel()
	dev, tab := newTable(t)
	// A mix of committed entries, chains, open transactions (UC>0, some
	// with RFC 0), and removed entries; half the re-referenced blocks are
	// resumed, so the sweep both moves and discards update counts.
	resumed := map[uint64]int{}
	for p := uint64(0); p < 8; p++ {
		for i := byte(1); i <= 4; i++ {
			block := tDataStart + uint64(p*8) + uint64(i)
			res := mustBegin(t, tab, fpWithPrefix(p, i), block)
			switch i % 3 {
			case 0: // left open: UC discarded at recovery, RFC 0 -> dropped
			case 1:
				tab.CommitTxn(res.Idx)
			case 2: // committed then re-referenced, left with a pending UC
				tab.CommitTxn(res.Idx)
				mustBegin(t, tab, fpWithPrefix(p, i), block)
				if p%2 == 0 {
					resumed[block] = 1
				}
			}
		}
	}

	run := func(workers int) (RecoverStats, int, []byte) {
		img := dev.Clone().CrashImage(pmem.CrashKeepDirty, 0)
		rt := Attach(img, Config{Base: 0, PrefixBits: tPrefixBits, DataStart: tDataStart, NumData: tNumData})
		rt.RecoveryWorkers = workers
		rs, scrubbed, err := rt.Sweep(rt.WalkChains(), resumed, func(b uint64) bool { return b%2 == 0 }) // drop odd blocks
		if err == nil {
			err = rt.CheckInvariants()
		}
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		buf := make([]byte, img.Size())
		img.Read(0, buf)
		return rs, scrubbed, buf
	}
	rs1, sc1, b1 := run(1)
	rs8, sc8, b8 := run(8)
	if rs1 != rs8 || sc1 != sc8 {
		t.Errorf("RecoverStats diverge:\n 1: %+v scrubbed %d\n 8: %+v scrubbed %d", rs1, sc1, rs8, sc8)
	}
	if rs1.UCsDiscarded == 0 || rs1.EntriesDropped == 0 || sc1 == 0 {
		t.Errorf("image exercises too little: %+v scrubbed %d", rs1, sc1)
	}
	if !bytes.Equal(b1, b8) {
		t.Error("post-recovery FACT images differ between 1 and 8 workers")
	}
}

// within fails the test if fn does not return within a few seconds: a
// recovery walk that follows a pointer cycle forever must show up as a
// failure, not as a hung test binary.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not terminate", what)
	}
}

// TestRecoverReorderBounded crafts raised commit flags whose walks leave
// the IAA or cycle. Recovery must terminate without a panic, lower the flag
// and keep the head. A member the truncated chain no longer reaches still
// holds its reference (RFC 1), so the sweep must leave it as it is, keep it
// off the free list and fail; otherwise the table must be consistent.
func TestRecoverReorderBounded(t *testing.T) {
	t.Parallel()
	const p = 20
	for _, tc := range []struct {
		name string
		// corrupt gets the chain's IAA members in order.
		corrupt func(tab *Table, m []uint64)
		keep    int // members the chain still reaches; the rest are stranded
	}{
		{"flag past the table", func(tab *Table, m []uint64) {
			tab.setPrev(p, uint64(tab.TotalEntries())+5)
		}, 3},
		{"flag names another head", func(tab *Table, m []uint64) {
			tab.setPrev(p, p+1)
		}, 3},
		{"phase 1 next cycle", func(tab *Table, m []uint64) {
			tab.setPrev(p, p)
			tab.setNext(m[2], m[0])
		}, 3},
		{"phase 2 prev cycle", func(tab *Table, m []uint64) {
			tab.setPrev(p, m[2])
			tab.setPrev(m[1], m[2]) // m[2] -> m[1] -> m[2]: never back to the head
		}, 2},
		{"phase 2 prev past the table", func(tab *Table, m []uint64) {
			tab.setPrev(p, m[2])
			tab.setPrev(m[2], uint64(tab.TotalEntries()))
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev, tab := newTable(t)
			var members []uint64
			for i := byte(1); i <= 4; i++ {
				res := mustBegin(t, tab, fpWithPrefix(p, i), tDataStart+uint64(i))
				tab.CommitTxn(res.Idx)
				if res.Idx != p {
					members = append(members, res.Idx)
				}
			}
			tc.corrupt(tab, members)
			rt := Attach(dev.CrashImage(pmem.CrashKeepDirty, 0), Config{Base: 0, PrefixBits: tPrefixBits, DataStart: tDataStart, NumData: tNumData})
			var rs RecoverStats
			var err error
			within(t, "recovery", func() {
				rs, _, err = rt.Sweep(rt.WalkChains(), nil, func(uint64) bool { return true })
			})
			if rs.ReordersResumed != 1 {
				t.Errorf("ReordersResumed = %d, want 1", rs.ReordersResumed)
			}
			chain := rt.ChainOf(p)
			if len(chain) != 1+tc.keep {
				t.Errorf("chain = %v, want the head and %d members", chain, tc.keep)
			}
			if _, _, ok := rt.Lookup(fpWithPrefix(p, 1)); !ok {
				t.Error("the head's entry was lost")
			}
			reached := map[uint64]bool{}
			for _, idx := range chain {
				reached[idx] = true
			}
			stranded := 0
			for _, m := range members {
				if reached[m] {
					continue
				}
				stranded++
				if e := rt.EntryAt(m); e.RFC != 1 || e.FP != tab.EntryAt(m).FP {
					t.Errorf("stranded entry %d was changed: %+v", m, e)
				}
				if slices.Contains(rt.iaaFree, m) {
					t.Errorf("stranded entry %d is on the free list", m)
				}
			}
			if stranded != 3-tc.keep {
				t.Errorf("%d members stranded, want %d", stranded, 3-tc.keep)
			}
			if rs.Stranded != stranded || (err != nil) != (stranded > 0) {
				t.Errorf("Sweep reports %d stranded and error %v; %d members are stranded", rs.Stranded, err, stranded)
			}
			if stranded == 0 {
				checkInv(t, rt)
			}
		})
	}
}

// TestWalkChainsBlockOutsideDataRegion crafts occupied entries — a DAA
// head and an IAA member — whose block lies outside the data region, as a
// corrupt image can hold. Recovery must not panic: both are unlinked as
// ghosts, the head staying in place as the chain's anchor, and the chain's
// other entries survive.
func TestWalkChainsBlockOutsideDataRegion(t *testing.T) {
	t.Parallel()
	const p = 7
	dev, tab := newTable(t)
	var idx []uint64
	for i := byte(1); i <= 4; i++ {
		res := mustBegin(t, tab, fpWithPrefix(p, i), tDataStart+uint64(i))
		tab.CommitTxn(res.Idx)
		idx = append(idx, res.Idx)
	}
	for _, c := range []struct{ idx, block uint64 }{{idx[0], 0}, {idx[2], tDataStart + tNumData}} {
		off := tab.entryOff(c.idx) + feBlock
		dev.Store64(off, c.block)
		dev.Persist(off, 8)
	}
	rt := Attach(dev.CrashImage(pmem.CrashKeepDirty, 0), Config{Base: 0, PrefixBits: tPrefixBits, DataStart: tDataStart, NumData: tNumData})
	if rs := recoverAll(t, rt); rs.GhostsUnlinked != 2 {
		t.Errorf("GhostsUnlinked = %d, want 2", rs.GhostsUnlinked)
	}
	checkInv(t, rt)
	if chain := rt.ChainOf(p); len(chain) != 3 || chain[0] != p || chain[1] != idx[1] || chain[2] != idx[3] {
		t.Errorf("chain = %v, want [%d %d %d]", chain, p, idx[1], idx[3])
	}
	for _, i := range []byte{2, 4} {
		if _, _, ok := rt.Lookup(fpWithPrefix(p, i)); !ok {
			t.Errorf("entry %d lost", i)
		}
	}
	if got := rt.LiveEntries(); got != 2 {
		t.Errorf("LiveEntries = %d, want 2", got)
	}
}
