package fact

import (
	"fmt"
	"sync/atomic"
	"time"

	"denova/internal/layout"
	"denova/internal/obs"
)

// This file implements the deduplication transaction protocol of §IV-D and
// the reclamation path of §IV-C/§IV-D3.
//
// A transaction on a FACT entry is bracketed by the update count:
//
//	BeginTxn   — UC++ (atomic persist). For a unique chunk this also
//	             inserts the entry (UC=1) and its delete pointer.
//	CommitTxn  — UC--, RFC++ in ONE atomic persistent store on the shared
//	             counts word, after the file-log commit made the
//	             deduplication durable.
//
// A crash between the two leaves UC>0; recovery discards such counts
// (Inconsistency Handling II), so an uncommitted transaction can never
// corrupt the RFC.

// ErrTableFull is returned when the IAA has no free slots left.
var ErrTableFull = fmt.Errorf("fact: indirect access area exhausted")

// TxnResult describes the outcome of BeginTxn.
type TxnResult struct {
	// Idx is the FACT entry participating in the transaction.
	Idx uint64
	// Dup is true when the fingerprint was already present: the caller's
	// block is a duplicate of Canonical.
	Dup bool
	// Canonical is the block the FACT entry points at (equal to the
	// caller's block for unique chunks).
	Canonical uint64
	// WalkLen is the number of chain entries inspected (1 = direct hit in
	// the DAA), the metric the reordering policy optimizes.
	WalkLen int
}

// BeginTxn looks up fp (steps ②③ of Fig. 6). If found, it registers a new
// transaction against the existing entry (UC++). Otherwise it inserts a
// fresh entry for block with UC=1 and installs the block's delete pointer.
func (t *Table) BeginTxn(fp FP, block uint64) (TxnResult, error) {
	if o := t.obs; o != nil {
		start := time.Now()
		defer func() { o.observe(o.Begin, obs.OpFactBegin, block, time.Since(start)) }()
	}
	prefix := t.PrefixOf(fp)
	mu := t.lockFor(prefix)
	mu.Lock()
	defer mu.Unlock()

	atomic.AddInt64(&t.stats.Lookups, 1)
	hit, found, tail, headFree, walk := t.lookupLocked(prefix, fp)
	atomic.AddInt64(&t.stats.WalkEntries, int64(walk))
	if found {
		counts := t.incUC(hit.Idx)
		atomic.AddInt64(&t.stats.DupHits, 1)
		t.maybeMarkReorder(prefix, walk, counts)
		return TxnResult{Idx: hit.Idx, Dup: true, Canonical: hit.Block, WalkLen: walk}, nil
	}
	idx, err := t.insertLocked(prefix, tail, headFree, fp, block)
	if err != nil {
		return TxnResult{}, err
	}
	atomic.AddInt64(&t.stats.Inserts, 1)
	return TxnResult{Idx: idx, Dup: false, Canonical: block, WalkLen: walk}, nil
}

// lookupLocked walks the chain for prefix comparing fingerprints, one line
// read per node. It returns the matching entry's snapshot and whether there
// was one, the chain tail (for appends), whether the DAA head is unoccupied
// (for inserts), and the number of occupied entries inspected. The chain
// lock is held.
func (t *Table) lookupLocked(prefix uint64, fp FP) (hit Entry, found bool, tail uint64, headFree bool, walk int) {
	for cur := prefix; ; {
		e := t.EntryAt(cur)
		if e.occupied() {
			walk++
			if e.FP == fp {
				return e, true, cur, headFree, walk
			}
		} else if cur == prefix {
			headFree = true
		}
		if e.Next == None {
			return Entry{}, false, cur, headFree, walk
		}
		cur = e.Next
	}
}

// insertLocked places a new entry for (fp, block) with UC=1. The DAA head
// slot is claimed when unoccupied (even if a chain hangs off it, so its next
// field is kept; its prev field is the reorder flag, None while the chain
// lock is free); otherwise an IAA slot is allocated and appended at the
// chain tail. The counts word is the commit point and the LAST store of the
// entry's line, so one flush covers the whole entry: whatever part of the
// line a crash exposes (whole-line old-or-new in the crash model, a prefix
// of the stores on x86) either reads unoccupied or is complete.
//
//  1. fields, then counts (UC=1), one persist — entry now exists,
//  2. tail.next linked (IAA case), persisted,
//  3. delete pointer installed, persisted.
//
// A crash after (1) but before (2) leaves an orphan IAA slot invisible to
// lookups; recovery reclaims it. A crash before (3) leaves an entry whose
// block has no delete pointer; recovery reinstalls delete pointers from the
// entries themselves.
func (t *Table) insertLocked(prefix, tail uint64, headFree bool, fp FP, block uint64) (uint64, error) {
	idx := prefix
	if !headFree {
		var err error
		if idx, err = t.allocIAA(); err != nil {
			return 0, err
		}
	}
	off := t.entryOff(idx)
	t.storeIdentity(off, fp, block)
	if idx != prefix {
		t.dev.Store64(off+fePrev, tail)
		t.dev.Store64(off+feNext, None)
	}
	t.dev.Store64(off+feCounts, uint64(1)<<32) // UC=1, RFC=0
	t.dev.Persist(off, EntrySize)
	if idx != prefix {
		t.setNext(tail, idx) // link: entry becomes reachable
	}
	t.setDelPtr(block, idx)
	return idx, nil
}

func (t *Table) allocIAA() (uint64, error) {
	t.iamu.Lock()
	defer t.iamu.Unlock()
	if len(t.iaaFree) == 0 {
		return 0, ErrTableFull
	}
	idx := t.iaaFree[len(t.iaaFree)-1]
	t.iaaFree = t.iaaFree[:len(t.iaaFree)-1]
	return idx, nil
}

func (t *Table) freeIAA(idx uint64) {
	t.iamu.Lock()
	t.iaaFree = append(t.iaaFree, idx)
	t.iamu.Unlock()
}

// IAAFree returns the number of free IAA slots.
func (t *Table) IAAFree() int {
	t.iamu.Lock()
	defer t.iamu.Unlock()
	return len(t.iaaFree)
}

// incUC atomically increments the update count, persists the word and
// returns its new value.
func (t *Table) incUC(idx uint64) uint64 {
	off := t.entryOff(idx) + feCounts
	w := t.dev.Add64(off, uint64(1)<<32)
	t.dev.Persist(off, 8)
	return w
}

// CommitTxn applies "decrease the UC and increase the RFC" as one atomic
// persistent store (step ⑥ of Fig. 6). It returns false when the entry has
// no pending update count.
func (t *Table) CommitTxn(idx uint64) bool {
	off := t.entryOff(idx) + feCounts
	if !t.takeUC(off, 1) {
		return false
	}
	t.dev.Persist(off, 8)
	atomic.AddInt64(&t.stats.Commits, 1)
	return true
}

// CommitTxnBatch commits a set of open transactions with one fence: each
// entry's counts word is transferred UC→RFC by an atomic CAS and flushed
// individually, and a single trailing fence orders the whole batch. The
// counts word is the only commit record (count-based consistency), so the
// entries need no mutual ordering — a crash exposes some flushed prefix of
// independent single-word commits, exactly as if they had been committed
// one by one. Saves one fence per entry on the worker hot path.
func (t *Table) CommitTxnBatch(idxs []uint64) int {
	if o := t.obs; o != nil {
		start := time.Now()
		defer func() { o.observe(o.CommitBatch, obs.OpFactCommitBatch, uint64(len(idxs)), time.Since(start)) }()
	}
	committed := 0
	for _, idx := range idxs {
		if off := t.entryOff(idx) + feCounts; t.takeUC(off, 1) {
			t.dev.Flush(off, 8)
			atomic.AddInt64(&t.stats.Commits, 1)
			committed++
		}
	}
	if committed > 0 {
		t.dev.Fence()
	}
	return committed
}

// AbortTxn drops a pending update count without transferring it to the
// RFC. Used when the engine discovers the transaction is a no-op — e.g. a
// re-processed entry whose page already owns its FACT entry (recovery
// Inconsistency Handling III re-enqueues such entries).
func (t *Table) AbortTxn(idx uint64) bool {
	off := t.entryOff(idx) + feCounts
	if !t.takeUC(off, 0) {
		return false
	}
	t.dev.Persist(off, 8)
	return true
}

// takeUC takes one pending update count off the counts word at off and
// adds add to the RFC, in one CAS the caller makes durable. It returns
// false when no count is pending.
func (t *Table) takeUC(off int64, add uint32) bool {
	for {
		w := t.dev.Load64(off)
		rfc, uc := uint32(w), uint32(w>>32)
		if uc == 0 {
			return false
		}
		if t.dev.CAS64(off, w, uint64(rfc+add)|uint64(uc-1)<<32) {
			return true
		}
	}
}

// Lookup finds a fingerprint without starting a transaction. It returns
// the entry index and canonical block. Note the result can be stale the
// moment the chain lock is released; write paths must use BeginTxn.
func (t *Table) Lookup(fp FP) (idx, canonical uint64, found bool) {
	prefix := t.PrefixOf(fp)
	mu := t.lockFor(prefix)
	mu.Lock()
	defer mu.Unlock()
	hit, ok, _, _, _ := t.lookupLocked(prefix, fp)
	return hit.Idx, hit.Block, ok
}

// maxRun caps how many consecutive delete-pointer slots DecRefBatch fetches
// with one read.
const maxRun = 32

// DecRefBatch is the reclamation path of §IV-C for a whole extent: it drops
// one reference from each block and calls free for every block that may be
// reclaimed — its reference count reached zero with no transaction in
// flight (the entry is then removed from its chain), or it has no FACT entry
// at all (never deduped). A block whose RFC hits zero while UC>0 is kept:
// the in-flight transaction is about to re-reference it.
//
// The delete pointers of each run of consecutive block numbers are fetched
// with one sequential read; each entry's chain lock is then taken in turn,
// one stripe at a time. The batch pays one fence for all its decrements
// that leave references: each is flushed alone, and one closing fence
// orders them, by CommitTxnBatch's argument — the counts word is an entry's
// only commit record, so the decrements are independent, and one a crash
// loses is an over-count the scrubber repairs. A removal keeps its own
// ordered persists.
func (t *Table) DecRefBatch(blocks []uint64, free func(block uint64)) {
	if o := t.obs; o != nil && len(blocks) > 0 {
		start := time.Now()
		defer func() {
			per := time.Since(start) / time.Duration(len(blocks))
			for _, b := range blocks {
				o.observe(o.DecRef, obs.OpFactDecRef, b, per)
			}
		}()
	}
	var lines [maxRun * EntrySize]byte
	unfenced := false
	for rest := blocks; len(rest) > 0; {
		n := 1
		for n < len(rest) && n < maxRun && rest[n] == rest[0]+uint64(n) {
			n++
		}
		t.relBlock(rest[n-1]) // bounds the run; rest[0] is checked below
		t.dev.LoadLines(t.entryOff(t.relBlock(rest[0])), n, lines[:])
		for i, b := range rest[:n] {
			idx := layout.Record(lines[:]).U64(i*EntrySize + feDelPtr)
			if idx == None || t.decRef(b, idx, &unfenced) {
				free(b)
			}
		}
		rest = rest[n:]
	}
	if unfenced {
		t.dev.Fence()
	}
}

// decRef drops one reference from block, whose delete pointer named idx
// when it was read without a lock, and reports whether the block may be
// freed. A DAA slot heads its own chain; an IAA entry's chain is named by
// its fingerprint, which has to be peeked unlocked. unfenced tracks whether
// a flush of the batch still waits for a fence.
func (t *Table) decRef(block, idx uint64, unfenced *bool) bool {
	for {
		prefix, fp := idx, FP{}
		if int64(idx) >= t.daa {
			fp = t.EntryAt(idx).FP
			prefix = t.PrefixOf(fp)
		}
		freed, owner := t.decRefLocked(prefix, block, idx, fp, unfenced)
		if owner == None {
			return freed
		}
		idx = owner // raced; retry with the current owner
	}
}

// decRefLocked is one attempt of decRef under prefix's chain lock, validated
// by one snapshot of the entry: if it holds block (and, for an IAA entry,
// still has the peeked fingerprint, so this is its chain's lock), it is the
// entry block's delete pointer names. That rests on an invariant of
// insertLocked and removeLocked — each changes an entry and its block's
// delete pointer inside one critical section of the entry's chain lock, and
// a block has at most one entry, so under that lock "entry idx holds b"
// implies delptr[b] == idx — which is what lets reclamation stop at the
// paper's two NVM reads (delete pointer, entry). Only when the snapshot does
// not match (the entry was removed, its slot maybe reused, before the lock
// was taken) is the pointer read again: the current owner is returned for a
// retry, None once the attempt is decided.
//
// The decrement starts from the snapshot's counts. One that leaves
// references or an open transaction is flushed on its own and left for the
// batch's closing fence (*unfenced); one that empties the word is not — a
// zero word already reads as unoccupied, and removeLocked persists it
// together with the identity wipe, fencing every earlier flush too.
func (t *Table) decRefLocked(prefix, block, idx uint64, fp FP, unfenced *bool) (freed bool, owner uint64) {
	mu := t.lockFor(prefix)
	mu.Lock()
	defer mu.Unlock()
	e := t.EntryAt(idx)
	if e.Block != block || (prefix != idx && e.FP != fp) {
		owner = t.delPtr(block)
		return owner == None, owner
	}
	off := t.entryOff(idx) + feCounts
	for w := e.counts(); w != 0; w = t.dev.Load64(off) {
		if uint32(w) == 0 {
			return false, None // no committed reference but a transaction in flight: keep
		}
		if !t.dev.CAS64(off, w, w-1) {
			continue // a lock-free commit moved the word: reload
		}
		atomic.AddInt64(&t.stats.DecRefs, 1)
		if w-1 != 0 {
			t.dev.Flush(off, 8)
			*unfenced = true
			return false, None
		}
		break
	}
	// RFC and UC are both zero: the last reference went (or the entry was a
	// leftover with no counts at all).
	t.removeLocked(prefix, e)
	*unfenced = false
	return true, None
}

// removeLocked deletes the entry from its chain and clears its block's
// delete pointer. The entry's own line is flushed once: counts=0 is the
// FIRST store of the line, so any part of the wipe a crash exposes already
// reads unoccupied. A DAA head keeps its next field (the chain anchor). An
// IAA node costs the paper's three chain flushes (Fig. 11): itself — with
// occupancy durable before the unlink, and prev/next left in the slot so
// recovery can still unlink it as a ghost; insertLocked overwrites them on
// reuse — then prev.next and next.prev.
func (t *Table) removeLocked(prefix uint64, e Entry) {
	t.wipe(e.Idx)
	if e.Idx != prefix {
		t.setNext(e.Prev, e.Next)
		if e.Next != None {
			t.setPrev(e.Next, e.Prev)
		}
	}
	t.setDelPtr(e.Block, None)
	if e.Idx != prefix {
		t.freeIAA(e.Idx)
	}
	atomic.AddInt64(&t.stats.Removes, 1)
}
