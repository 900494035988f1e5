package fact

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"denova/internal/pmem"
)

// The device-access budget of §IV-C, pinned from pmem.Stats deltas on the
// zero-latency profile (so the counts are exact): every FACT operation reads
// an entry's cache line once and flushes it once.

func cost(dev *pmem.Device, fn func()) pmem.Stats {
	before := dev.Stats()
	fn()
	return dev.Stats().Sub(before)
}

func wantCost(t *testing.T, what string, got pmem.Stats, reads, flushed int64) {
	t.Helper()
	if got.ReadLines != reads || got.FlushedLines != flushed {
		t.Errorf("%s: %d line reads, %d flushed lines; want %d and %d", what, got.ReadLines, got.FlushedLines, reads, flushed)
	}
	if got.Fences != got.FlushedLines {
		t.Errorf("%s: %d fences for %d flushed lines; every persist here is one line", what, got.Fences, got.FlushedLines)
	}
}

func TestDeviceAccessBudget(t *testing.T) {
	t.Parallel()
	dev, tab := newTable(t)
	begin := func(fp FP, block uint64) TxnResult { return mustBegin(t, tab, fp, block) }

	// BeginTxn: one read per chain node; a miss into an empty head flushes
	// the entry and the delete pointer, a hit flushes the counts word.
	var head TxnResult
	wantCost(t, "miss into an empty head", cost(dev, func() { head = begin(fpWithPrefix(3, 1), tDataStart+1) }), 1, 2)
	tab.CommitTxn(head.Idx)
	wantCost(t, "hit on a DAA head", cost(dev, func() { begin(fpWithPrefix(3, 1), tDataStart+40) }), 1, 1)
	tab.CommitTxn(head.Idx) // RFC 2

	// Grow the chain to k = 4 nodes; a miss at depth k reads k lines and
	// flushes entry, link and delete pointer.
	var node [5]TxnResult
	for k := int64(2); k <= 4; k++ {
		k := k
		c := cost(dev, func() { node[k] = begin(fpWithPrefix(3, byte(k)), tDataStart+uint64(k)) })
		wantCost(t, "miss appending an IAA node", c, k-1, 3)
		tab.CommitTxn(node[k].Idx)
	}
	wantCost(t, "hit at the tail of a 4-node chain", cost(dev, func() { begin(fpWithPrefix(3, 4), tDataStart+41) }), 4, 1)
	tab.CommitTxn(node[4].Idx) // RFC 2

	// Reclamation. A DAA head takes the paper's two reads — delete pointer,
	// entry — and an IAA node one more, the unlocked fingerprint peek that
	// names its chain. A decrement flushes the counts word.
	wantCost(t, "non-final decrement of a DAA head", cost(dev, func() { decRef(tab, tDataStart+1) }), 2, 1)
	wantCost(t, "non-final decrement of an IAA node", cost(dev, func() { decRef(tab, tDataStart+4) }), 3, 1)
	// Last reference of an IAA node in mid-chain: the paper's three chain
	// flushes (itself, prev.next, next.prev) plus the delete pointer.
	wantCost(t, "last-reference removal of an IAA node", cost(dev, func() { decRef(tab, tDataStart+3) }), 3, 4)
	// Last reference of the DAA head (RFC 2 -> 1 happened above): its line
	// once, then the delete pointer; the chain stays anchored on it.
	wantCost(t, "last-reference removal of a DAA head", cost(dev, func() { decRef(tab, tDataStart+1) }), 2, 2)
	if got := tab.LiveEntries(); got != 2 {
		t.Fatalf("LiveEntries = %d after the two removals, want 2", got)
	}
	checkInv(t, tab)

	// A batch of k decrements that all leave references: the paper's two
	// reads and one flushed counts word each, and one fence for the batch.
	const k = 4
	batch := make([]uint64, k)
	for i := range batch {
		batch[i] = tDataStart + 50 + uint64(i) // one run: one delete-pointer read
		fp := fpWithPrefix(uint64(8+i), 1)
		res := begin(fp, batch[i])
		tab.CommitTxn(res.Idx)
		begin(fp, tDataStart+60)
		tab.CommitTxn(res.Idx) // RFC 2
	}
	c := cost(dev, func() { tab.DecRefBatch(batch, func(b uint64) { t.Errorf("block %d freed with a reference left", b) }) })
	if c.ReadLines != 2*k || c.FlushedLines != k || c.Fences != 1 {
		t.Errorf("%d decrements leaving references: %d line reads, %d flushed lines, %d fences; want %d, %d and 1",
			k, c.ReadLines, c.FlushedLines, c.Fences, 2*k, k)
	}
	checkInv(t, tab)
}

// TestDecRefBatchNeverDedupedRun pins the batch fast path: eight consecutive
// blocks with no FACT entry cost one sequential read — one media access,
// eight line transfers — and not a single flush.
func TestDecRefBatchNeverDedupedRun(t *testing.T) {
	t.Parallel()
	dev, tab := newTable(t)
	dev.SetProfile(pmem.LatencyProfile{ReadAccessOverhead: time.Microsecond})
	blocks := make([]uint64, 8)
	for i := range blocks {
		blocks[i] = tDataStart + 20 + uint64(i)
	}
	var freed []uint64
	c := cost(dev, func() { tab.DecRefBatch(blocks, func(b uint64) { freed = append(freed, b) }) })
	if c.ReadLines != 8 || c.SimLatencyNs != int64(time.Microsecond) {
		t.Errorf("%d line reads in %d ns of media time; want 8 lines in one 1000 ns access", c.ReadLines, c.SimLatencyNs)
	}
	if c.FlushedLines != 0 || c.Fences != 0 {
		t.Errorf("%d flushed lines, %d fences; want none", c.FlushedLines, c.Fences)
	}
	if len(freed) != len(blocks) {
		t.Fatalf("freed %v, want all of %v", freed, blocks)
	}
}

// TestDecRefBatchMixedExtent releases one extent holding a shared block, a
// block whose only reference this is, the same block twice, and never-
// deduped blocks, across a run boundary.
func TestDecRefBatchMixedExtent(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	shared := mustBegin(t, tab, fpWithPrefix(1, 1), tDataStart+10)
	tab.CommitTxn(shared.Idx)
	mustBegin(t, tab, fpWithPrefix(1, 1), tDataStart+50)
	tab.CommitTxn(shared.Idx)                                      // RFC 2
	unique := mustBegin(t, tab, fpWithPrefix(1, 2), tDataStart+11) // IAA
	tab.CommitTxn(unique.Idx)
	twice := mustBegin(t, tab, fpWithPrefix(2, 1), tDataStart+13)
	tab.CommitTxn(twice.Idx)
	mustBegin(t, tab, fpWithPrefix(2, 1), tDataStart+51)
	tab.CommitTxn(twice.Idx) // RFC 2, both references in this extent

	freed := map[uint64]int{}
	tab.DecRefBatch([]uint64{tDataStart + 10, tDataStart + 11, tDataStart + 12, tDataStart + 13, tDataStart + 13, tDataStart + 30},
		func(b uint64) { freed[b]++ })
	want := map[uint64]int{tDataStart + 11: 1, tDataStart + 12: 1, tDataStart + 13: 1, tDataStart + 30: 1}
	if len(freed) != len(want) {
		t.Fatalf("freed %v, want %v", freed, want)
	}
	for b, n := range want {
		if freed[b] != n {
			t.Fatalf("freed %v, want %v", freed, want)
		}
	}
	if tab.RFC(shared.Idx) != 1 || tab.LiveEntries() != 1 {
		t.Fatalf("shared RFC = %d, live = %d; want 1 and 1", tab.RFC(shared.Idx), tab.LiveEntries())
	}
	checkInv(t, tab)
}

// TestTortureDeletePointerInvariant checks, while inserts, commits and
// releases run, the invariant decRefLocked's two-read validation rests on:
// under the chain lock, an occupied entry whose block is b is the entry
// delptr[b] names.
func TestTortureDeletePointerInvariant(t *testing.T) {
	t.Parallel()
	_, tab := newTable(t)
	const prefixes, perPrefix = 4, 3 // short chains, constant reuse of head and IAA slots
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns its blocks, so a block has one writer and at
			// most one entry — the file system's CoW guarantee.
			for i := 0; !stop.Load(); i++ {
				p, tag := uint64(i%prefixes), byte(w*perPrefix+i%perPrefix+1)
				block := tDataStart + uint64(w*prefixes*perPrefix+(i%prefixes)*perPrefix+i%perPrefix)
				res, err := tab.BeginTxn(fpWithPrefix(p, tag), block)
				if err != nil {
					t.Error(err)
					return
				}
				tab.CommitTxn(res.Idx)
				decRef(tab, res.Canonical)
			}
		}(w)
	}
	for round := 0; round < 400; round++ {
		for p := uint64(0); p < prefixes; p++ {
			mu := tab.lockFor(p)
			mu.Lock()
			for cur := p; cur != None; {
				e := tab.EntryAt(cur)
				if e.occupied() {
					if ptr := tab.delPtr(e.Block); ptr != e.Idx {
						t.Errorf("chain %d: entry %d holds block %d but its delete pointer names %d", p, e.Idx, e.Block, ptr)
					}
				}
				cur = e.Next
			}
			mu.Unlock()
		}
	}
	stop.Store(true)
	wg.Wait()
	checkInv(t, tab)
}
