package fact

import (
	"fmt"
	"maps"
	"sync/atomic"

	"denova/internal/par"
	"denova/internal/pmem"
)

// Mount-time recovery of the FACT (§V-C) is two calls, one fan-out each.
// The caller orchestrates them, because the dedup engine's in-process
// resume counts must be known before the sweep and its dedupe flags
// advanced after it:
//
//	t := fact.Attach(dev, cfg)
//	c := t.WalkChains()                             // commit flags, prevs, ghosts; the live set
//	<count in-process page references per block>
//	rs, scrubbed, err := t.Sweep(c, resumed, inUse) // decide every slot once
//	<advance the resumed write entries to dedupe_complete>
//
// dedup.Recover runs both on every mount, clean or not; a ModeNone mount
// runs only WalkChains and refuses a table with a live entry.
//
// WalkChains shards by DAA range and Sweep by index range, across
// Table.RecoveryWorkers goroutines, and every pool size leaves the same
// image: chain links may only name IAA slots, so walks from distinct heads
// touch disjoint entries; the sweep's per-slot repairs touch only their
// own slot; and its chain unlinks (dropEntry) are applied single-threaded
// afterwards in a fixed order.

// Attach opens an existing FACT region without zeroing it. The IAA free
// list starts empty; Sweep rebuilds it.
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
	GhostsUnlinked  int // chain entries with zero counts or a block outside the data region
	DelPtrsFixed    int // delete pointers reinstalled or cleared
	UCsDiscarded    int // live entries whose update count was not all resumed
	EntriesDropped  int // entries removed because their RFC was 0 once the UC went
	Stranded        int // unreachable IAA entries still holding references, left as they are
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
	s.Stranded += o.Stranded
}

// Chains is what WalkChains learned: its repairs and the live set.
type Chains struct {
	rs    RecoverStats
	chain map[uint64]uint64 // reachable IAA member -> its chain head
	owner map[uint64]uint64 // relative block -> the live entry its delete pointer names
}

func newChains() Chains {
	return Chains{chain: make(map[uint64]uint64), owner: make(map[uint64]uint64)}
}

// Empty reports whether the table holds no live entry (every live entry
// claims its block).
func (c *Chains) Empty() bool { return len(c.owner) == 0 }

// inChain reports whether idx is already a live member of p's chain.
func (c *Chains) inChain(idx, p uint64) bool {
	q, ok := c.chain[idx]
	return ok && q == p
}

// claim records live entry idx as the delete-pointer owner of relative
// block r. If two entries claim one block (a corrupt image) the higher
// index wins.
func (c *Chains) claim(r, idx uint64) {
	if idx >= c.owner[r] {
		c.owner[r] = idx
	}
}

// WalkChains is recovery's first call: it repairs every chain from its
// DAA head — resuming an interrupted reorder, rebuilding prev pointers and
// unlinking ghosts — and returns the live set. It must run before the table
// serves lookups. The heads are read in runs and sharded by DAA range;
// per-shard results merge in range order.
func (t *Table) WalkChains() *Chains {
	workers := max(t.RecoveryWorkers, 1)
	shards := make([]Chains, workers)
	par.Ranges(0, t.daa, workers, func(w int, lo, hi int64) {
		sh := &shards[w]
		*sh = newChains()
		t.eachEntry(lo, hi, func(head Entry) { t.recoverChain(head, sh) })
	})
	c := newChains()
	for i := range shards {
		sh := &shards[i]
		c.rs.add(sh.rs)
		maps.Copy(c.chain, sh.chain)
		for r, idx := range sh.owner {
			c.claim(r, idx)
		}
	}
	return &c
}

// recoverChain repairs the chain anchored at DAA slot head.Idx and records
// its live entries in c. A chain is truncated at the first link that leaves
// the IAA or repeats, so a corrupted region (e.g. never initialized) cannot
// hang recovery. An entry holding a block outside the data region is a
// ghost like an unoccupied one: a head loses its identity and keeps its
// links (it anchors the chain), a member is unlinked.
func (t *Table) recoverChain(head Entry, c *Chains) {
	p := head.Idx
	if head.Prev != None {
		t.recoverReorder(head)
		c.rs.ReordersResumed++
		head = t.EntryAt(p)
	}
	if head.occupied() {
		if t.inData(head.Block) {
			c.claim(t.relBlock(head.Block), p)
		} else {
			t.wipe(p)
			c.rs.GhostsUnlinked++
		}
	}
	prev := p
	for cur := head.Next; cur != None; {
		if !t.inIAA(cur) || c.inChain(cur, p) {
			t.setNext(prev, None)
			break
		}
		e := t.EntryAt(cur)
		if !e.occupied() || !t.inData(e.Block) {
			// Half-inserted or half-removed entry: unlink.
			t.setNext(prev, e.Next)
			if t.inIAA(e.Next) && !c.inChain(e.Next, p) {
				t.setPrev(e.Next, prev)
			}
			t.clearSlot(cur)
			c.rs.GhostsUnlinked++
			cur = e.Next
			continue
		}
		if e.Prev != prev {
			t.setPrev(cur, prev)
			c.rs.PrevsFixed++
		}
		c.chain[cur] = p
		c.claim(t.relBlock(e.Block), cur)
		prev = cur
		cur = e.Next
	}
}

// wipe clears an entry's counts (the first store of the line) and identity
// with one flush, keeping its links and its delete-pointer field.
func (t *Table) wipe(idx uint64) {
	off := t.entryOff(idx)
	t.dev.Store64(off+feCounts, 0)
	t.storeIdentity(off, FP{}, 0)
	t.dev.Persist(off, EntrySize)
}

// clearSlot wipes an entry's counts, identity and links with one flush —
// not its delete-pointer field, which belongs to the slot's block index.
func (t *Table) clearSlot(idx uint64) {
	off := t.entryOff(idx)
	t.dev.Store64(off+feCounts, 0)
	t.storeIdentity(off, FP{}, 0)
	t.dev.Store64(off+fePrev, None)
	t.dev.Store64(off+feNext, None)
	t.dev.Persist(off, EntrySize)
}

// Sweep is recovery's second call. It visits every slot once, ascending,
// and decides it:
//
//   - an IAA slot outside c's live set is cleared if occupied (an orphan:
//     a crash between the counts persist and the chain link) and goes on
//     the rebuilt free list — unless its RFC is positive: crashes leave
//     orphans with RFC 0 only, so such a slot was cut off its chain by a
//     corrupt link while files still map its block; it stays as it is and
//     Sweep returns an error after finishing every other repair;
//   - a slot indexed by a data block gets its delete pointer set to the
//     block's live owner, or None;
//   - a live entry with pending update count u takes min(n, u) of it into
//     its RFC, where n is resumed[Block] — the in-process page references
//     naming its block, if it owns that block — and discards the rest
//     (Inconsistency Handling II), in one persist; left with RFC 0 it is
//     dropped;
//   - any other live entry whose block inUse rejects is dropped (§V-C2).
//
// Drops apply after the sweep, ascending: first the discards, then the
// scrubs. A removed IAA slot keeps its prev/next words, so adjacent unlinks
// only leave the same image when they run in the same order. Sweep returns
// the recovery's RecoverStats, c's included, and the number of entries
// dropped because their block was not in use.
func (t *Table) Sweep(c *Chains, resumed map[uint64]int, inUse func(block uint64) bool) (rs RecoverStats, scrubbed int, err error) {
	workers := max(t.RecoveryWorkers, 1)
	type shard struct {
		rs               RecoverStats
		free             []uint64
		discards, scrubs []uint64
	}
	shards := make([]shard, workers)
	par.Ranges(0, t.total, workers, func(w int, lo, hi int64) {
		sh := &shards[w]
		t.eachEntry(lo, hi, func(e Entry) {
			_, live := c.chain[e.Idx]                           // a reachable member
			live = live || int64(e.Idx) < t.daa && e.occupied() // or an occupied head
			if int64(e.Idx) >= t.daa && !live {
				if e.RFC > 0 {
					sh.rs.Stranded++ // files still map its block: keep it, refuse
				} else {
					if e.occupied() {
						t.clearSlot(e.Idx)
						sh.rs.OrphansCleared++
					}
					sh.free = append(sh.free, e.Idx)
				}
			}
			if int64(e.Idx) < t.numData {
				want, ok := c.owner[e.Idx]
				if !ok {
					want = None
				}
				if e.DelPtr != want {
					t.dev.PersistStore64(t.entryOff(e.Idx)+feDelPtr, want)
					sh.rs.DelPtrsFixed++
				}
			}
			if !live {
				return
			}
			if e.UC > 0 {
				n := 0
				if c.owner[t.relBlock(e.Block)] == e.Idx {
					n = min(resumed[e.Block], int(e.UC))
					atomic.AddInt64(&t.stats.Commits, int64(n)) // as CommitTxn counts them
				}
				if n < int(e.UC) {
					sh.rs.UCsDiscarded++
				}
				rfc := e.RFC + uint32(n)
				if rfc == 0 {
					sh.discards = append(sh.discards, e.Idx)
					return
				}
				t.dev.PersistStore64(t.entryOff(e.Idx)+feCounts, uint64(rfc))
			}
			if !inUse(e.Block) {
				sh.scrubs = append(sh.scrubs, e.Idx)
			}
		})
	})

	rs = c.rs
	var discards, scrubs []uint64
	t.iamu.Lock()
	t.iaaFree = t.iaaFree[:0]
	for _, sh := range shards {
		rs.add(sh.rs)
		t.iaaFree = append(t.iaaFree, sh.free...)
		discards = append(discards, sh.discards...)
		scrubs = append(scrubs, sh.scrubs...)
	}
	t.iamu.Unlock()
	for _, idx := range append(discards, scrubs...) {
		t.dropEntry(idx)
	}
	rs.EntriesDropped += len(discards)
	if rs.Stranded > 0 {
		err = fmt.Errorf("fact: %d IAA entries hold references but no chain reaches them; the table is corrupt", rs.Stranded)
	}
	return rs, len(scrubs), err
}

// Scrub removes every entry whose block the file system no longer uses
// (§V-C2: "DENOVA checks each FACT entry's data chunk. If the data chunk
// has been reclaimed by the free list in recovery, it decreases the RFC of
// the corresponding FACT entry, i.e., invalidates it."), on a live table.
// An entry with an open transaction is skipped: the transaction is about
// to reference its block, and the next scrub catches it if the
// transaction dies. It returns the blocks whose entries were dropped so
// the caller can reconcile free-space accounting.
func (t *Table) Scrub(inUse func(block uint64) bool) []uint64 {
	var cands []Entry
	t.eachEntry(0, t.total, func(e Entry) {
		if e.occupied() && e.UC == 0 && !inUse(e.Block) {
			cands = append(cands, e)
		}
	})
	var dropped []uint64
	for _, c := range cands {
		// dropEntry rechecks occupancy under the chain lock; the block
		// check guards against the slot having been rewritten since the
		// scan.
		if t.EntryAt(c.Idx).Block != c.Block {
			continue
		}
		t.dropEntry(c.Idx)
		dropped = append(dropped, c.Block)
	}
	return dropped
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
