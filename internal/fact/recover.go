package fact

import (
	"denova/internal/par"
	"denova/internal/pmem"
)

// Mount-time recovery of the FACT (§V-C). The caller orchestrates the
// sequence, because the dedup engine's in-process resume must land between
// chain repair and UC discarding:
//
//	t := fact.Attach(dev, cfg)
//	t.RecoverStructure()        // chains, free list, delete pointers
//	<dedup engine resumes in-process entries: CommitTxnByBlock(...)>
//	t.ZeroAllUC()               // discard counts of failed transactions
//	t.Scrub(inUse)              // drop entries whose block was reclaimed
//
// dedup.Recover runs the whole sequence on every mount, clean or not: a
// clean image simply gives ZeroAllUC and Scrub nothing to change, though
// both still sweep the whole table. RecoverStructure also rebuilds the DRAM
// IAA free list, which is never persisted.
//
// All three passes shard their index sweeps across Table.RecoveryWorkers
// goroutines. Sharding is safe and deterministic because the structure
// decomposes: every IAA entry belongs to exactly one DAA chain, so chain
// walks from distinct DAA heads touch disjoint entries; per-entry repairs
// (orphan clears, UC discards) touch only their own slot; and mutations
// that cross entries (chain unlinks via dropEntry) are collected during
// the parallel read phase and applied single-threaded in ascending index
// order, which yields the same persistent image as the sequential sweep
// (unlinks of distinct entries commute, and removing an entry never moves
// another: a removed DAA head stays in place as an unoccupied anchor).

// Attach opens an existing FACT region without zeroing it. The IAA free
// list starts empty; RecoverStructure rebuilds it.
func Attach(dev *pmem.Device, cfg Config) *Table {
	t := New(dev, cfg)
	t.iaaFree = t.iaaFree[:0]
	return t
}

// RecoverStats summarizes what recovery repaired.
type RecoverStats struct {
	ReordersResumed int // chains with a raised commit flag
	PrevsFixed      int // prev pointers rebuilt from next pointers
	OrphansCleared  int // unreachable IAA slots holding half-inserted entries
	GhostsUnlinked  int // chain members with zero counts (half-removed)
	DelPtrsFixed    int // delete pointers reinstalled or cleared
	UCsDiscarded    int // update counts zeroed by ZeroAllUC
	EntriesDropped  int // entries removed because RFC became 0 or block freed
}

// add accumulates o into s (per-worker RecoverStats reduction).
func (s *RecoverStats) add(o RecoverStats) {
	s.ReordersResumed += o.ReordersResumed
	s.PrevsFixed += o.PrevsFixed
	s.OrphansCleared += o.OrphansCleared
	s.GhostsUnlinked += o.GhostsUnlinked
	s.DelPtrsFixed += o.DelPtrsFixed
	s.UCsDiscarded += o.UCsDiscarded
	s.EntriesDropped += o.EntriesDropped
}

// recoveryWorkers resolves the pool size for the recovery sweeps.
func (t *Table) recoveryWorkers() int {
	return max(t.RecoveryWorkers, 1)
}

// RecoverStructure walks every chain, completing any interrupted reorder
// (commit flag protocol), rebuilding prev pointers, unlinking half-removed
// entries, validating delete pointers, and rebuilding the IAA free list.
// It must run before the table serves lookups. The DAA chain walk and the
// IAA sweep are partitioned by index range across RecoveryWorkers.
func (t *Table) RecoverStructure() RecoverStats {
	var rs RecoverStats
	workers := t.recoveryWorkers()

	// Phase 1: per-chain repair, sharded by DAA range. Chains from
	// distinct heads are disjoint, so workers never touch the same entry.
	type chainShard struct {
		rs        RecoverStats
		reachable map[uint64]bool
	}
	chainShards := make([]chainShard, workers)
	par.Ranges(0, t.daa, workers, func(w int, lo, hi int64) {
		sh := &chainShards[w]
		sh.reachable = make(map[uint64]bool)
		for p := uint64(lo); int64(p) < hi; p++ {
			t.recoverChain(p, sh.reachable, &sh.rs)
		}
	})
	reachable := make(map[uint64]bool)
	for i := range chainShards {
		rs.add(chainShards[i].rs)
		for idx := range chainShards[i].reachable {
			reachable[idx] = true
		}
	}

	// Phase 2: IAA slots, sharded by range. Unreachable ones go to the
	// free list; occupied orphans (crash between the counts persist and
	// the chain link) are cleared. Each repair touches only its own slot.
	// Per-worker free lists concatenate in range order, reproducing the
	// sequential ascending rebuild exactly.
	type iaaShard struct {
		cleared int
		free    []uint64
	}
	iaaShards := make([]iaaShard, workers)
	par.Ranges(t.daa, t.total, workers, func(w int, lo, hi int64) {
		sh := &iaaShards[w]
		for i := lo; i < hi; i++ {
			idx := uint64(i)
			if reachable[idx] {
				continue
			}
			if t.EntryAt(idx).occupied() {
				t.clearSlot(idx)
				sh.cleared++
			}
			sh.free = append(sh.free, idx)
		}
	})
	t.iamu.Lock()
	t.iaaFree = t.iaaFree[:0]
	for i := range iaaShards {
		rs.OrphansCleared += iaaShards[i].cleared
		t.iaaFree = append(t.iaaFree, iaaShards[i].free...)
	}
	t.iamu.Unlock()

	rs.DelPtrsFixed = t.fixDeletePointers()
	return rs
}

// recoverChain repairs the chain anchored at DAA slot p: it resumes an
// interrupted reorder, rebuilds prev pointers, and unlinks ghost entries,
// recording every live chain member in reachable.
func (t *Table) recoverChain(p uint64, reachable map[uint64]bool, rs *RecoverStats) {
	if t.recoverReorder(p) {
		rs.ReordersResumed++
	}
	// Walk the chain, fixing prevs and unlinking ghosts. Cycle guard:
	// a corrupted region (e.g. never initialized) must not hang
	// recovery — the chain is truncated at the first repeated entry.
	prev := p
	cur := t.EntryAt(p).Next
	visited := map[uint64]bool{}
	for cur != None {
		if int64(cur) >= t.total || visited[cur] {
			t.setNext(prev, None)
			break
		}
		visited[cur] = true
		e := t.EntryAt(cur)
		if !e.occupied() {
			// Half-inserted or half-removed IAA entry: unlink.
			t.setNext(prev, e.Next)
			if e.Next != None {
				t.setPrev(e.Next, prev)
			}
			t.clearSlot(cur)
			rs.GhostsUnlinked++
			cur = e.Next
			continue
		}
		if e.Prev != prev {
			t.setPrev(cur, prev)
			rs.PrevsFixed++
		}
		reachable[cur] = true
		prev = cur
		cur = e.Next
	}
}

// clearSlot wipes an entry's counts (the first store of the line), identity
// and links with one flush — not its delete-pointer field, which belongs to
// the slot's block index.
func (t *Table) clearSlot(idx uint64) {
	off := t.entryOff(idx)
	t.dev.Store64(off+feCounts, 0)
	t.storeIdentity(off, FP{}, 0)
	t.dev.Store64(off+fePrev, None)
	t.dev.Store64(off+feNext, None)
	t.dev.Persist(off, EntrySize)
}

// fixDeletePointers makes the delete-pointer index exactly mirror the live
// entries: every occupied entry's block maps to it; every other slot maps
// to None. Both the entry scan and the slot sweep shard by range; the
// per-worker want-maps merge in ascending range order, so if two entries
// ever claim the same block (corrupt image) the higher index wins, exactly
// as in the sequential scan.
func (t *Table) fixDeletePointers() int {
	workers := t.recoveryWorkers()

	wantShards := make([]map[uint64]uint64, workers)
	par.Ranges(0, t.total, workers, func(w int, lo, hi int64) {
		want := make(map[uint64]uint64)
		for i := lo; i < hi; i++ {
			if e := t.EntryAt(uint64(i)); e.occupied() {
				want[t.relBlock(e.Block)] = e.Idx
			}
		}
		wantShards[w] = want
	})
	want := make(map[uint64]uint64) // relBlock -> entry idx
	for _, sh := range wantShards {
		for k, v := range sh {
			want[k] = v
		}
	}

	fixedBy := make([]int, workers)
	par.Ranges(0, t.numData, workers, func(w int, lo, hi int64) {
		for r := lo; r < hi; r++ {
			slotOff := t.entryOff(uint64(r)) + feDelPtr
			cur := t.dev.Load64(slotOff)
			wv, ok := want[uint64(r)]
			if !ok {
				wv = None
			}
			if cur != wv {
				t.dev.PersistStore64(slotOff, wv)
				fixedBy[w]++
			}
		}
	})
	fixed := 0
	for _, n := range fixedBy {
		fixed += n
	}
	return fixed
}

// ZeroAllUC discards the update counts of transactions that never resumed
// (Inconsistency Handling II: "the UC is not applied to the RFC for these
// entries, but discarded. These UCs are set to 0 at system reboot").
// Entries left with RFC==0 are removed entirely. The sweep shards by
// index range: per-entry count rewrites run in the workers (they touch
// only their own slot), while removals — which rewrite neighbours' chain
// pointers — are collected and applied afterwards in ascending index
// order, producing the same image as the sequential sweep.
func (t *Table) ZeroAllUC() RecoverStats {
	var rs RecoverStats
	workers := t.recoveryWorkers()

	type ucShard struct {
		discarded int
		drops     []uint64
	}
	shards := make([]ucShard, workers)
	par.Ranges(0, t.total, workers, func(w int, lo, hi int64) {
		sh := &shards[w]
		for i := lo; i < hi; i++ {
			idx := uint64(i)
			cw := t.dev.Load64(t.entryOff(idx) + feCounts)
			rfc, uc := uint32(cw), uint32(cw>>32)
			if uc == 0 {
				continue
			}
			sh.discarded++
			if rfc == 0 {
				sh.drops = append(sh.drops, idx)
				continue
			}
			t.dev.PersistStore64(t.entryOff(idx)+feCounts, uint64(rfc))
		}
	})
	for i := range shards {
		rs.UCsDiscarded += shards[i].discarded
		for _, idx := range shards[i].drops {
			t.dropEntry(idx)
			rs.EntriesDropped++
		}
	}
	return rs
}

// Scrub removes every entry whose block the file system no longer uses
// (§V-C2: "DENOVA checks each FACT entry's data chunk. If the data chunk
// has been reclaimed by the free list in recovery, it decreases the RFC of
// the corresponding FACT entry, i.e., invalidates it."). It returns the
// blocks whose entries were dropped so the caller can reconcile free-space
// accounting. The candidate scan shards by index range (read-only); the
// drops apply afterwards in ascending index order.
func (t *Table) Scrub(inUse func(block uint64) bool) (RecoverStats, []uint64) {
	var rs RecoverStats
	workers := t.recoveryWorkers()

	type cand struct {
		idx, block uint64
	}
	candShards := make([][]cand, workers)
	par.Ranges(0, t.total, workers, func(w int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			e := t.EntryAt(uint64(i))
			if !e.occupied() || e.UC > 0 {
				// Empty, or an open transaction is about to reference
				// this block; the next scrub pass will catch it if the
				// transaction dies.
				continue
			}
			if !inUse(e.Block) {
				candShards[w] = append(candShards[w], cand{e.Idx, e.Block})
			}
		}
	})

	var dropped []uint64
	for _, sh := range candShards {
		for _, c := range sh {
			// Re-validate under the chain lock via dropEntry (it rechecks
			// occupancy); the block check guards against the slot having
			// been rewritten between the scan and the drop.
			if t.EntryAt(c.idx).Block != c.block {
				continue
			}
			t.dropEntry(c.idx)
			rs.EntriesDropped++
			dropped = append(dropped, c.block)
		}
	}
	return rs, dropped
}

// dropEntry force-removes an entry regardless of its counts, taking the
// chain lock.
func (t *Table) dropEntry(idx uint64) {
	prefix := idx // a DAA slot heads its own chain
	if int64(idx) >= t.daa {
		prefix = t.PrefixOf(t.EntryAt(idx).FP)
	}
	mu := t.lockFor(prefix)
	mu.Lock()
	defer mu.Unlock()
	if e := t.EntryAt(idx); e.occupied() {
		t.removeLocked(prefix, e)
	}
}
