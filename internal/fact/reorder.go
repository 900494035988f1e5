package fact

import (
	"sort"
	"sync"
	"sync/atomic"
)

// §IV-E: a data chunk with a high RFC is likely to be written again, so its
// FACT entry should sit near the front of its IAA chain. The deduplication
// daemon reorders chains whose lookups walk too deep. Reordering rewrites
// prev/next fields in place on PM, so it follows the commit-flag protocol
// of Fig. 7, keyed on the chain head's prev field:
//
//	idle                    head.prev == None
//	phase 1 (prevs rewrite) head.prev == head's own index
//	phase 2 (nexts rewrite) head.prev == last node's index
//
// Recovery inspects the flag: in phase 1 the next fields still describe the
// old (consistent) order, so the prev fields are rebuilt from them; in
// phase 2 the prev fields fully describe the new order, so the next fields
// are rebuilt from them, completing the reordering.

// reorderQueue collects chains flagged during lookups for the daemon.
type reorderQueue struct {
	mu      sync.Mutex //denova:locks(fact.reorder)
	pending map[uint64]struct{}
}

func (q *reorderQueue) add(prefix uint64) {
	q.mu.Lock()
	if q.pending == nil {
		q.pending = make(map[uint64]struct{})
	}
	q.pending[prefix] = struct{}{}
	q.mu.Unlock()
}

func (q *reorderQueue) drain() []uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]uint64, 0, len(q.pending))
	for p := range q.pending {
		out = append(out, p)
	}
	q.pending = nil
	return out
}

// maybeMarkReorder flags a chain for reordering when the lookup that just
// completed walked deeper than the threshold to reach a hot entry; counts is
// that entry's counts word.
func (t *Table) maybeMarkReorder(prefix uint64, walk int, counts uint64) {
	if !t.ReorderEnabled || walk <= t.DepthThreshold {
		return
	}
	if uint32(counts)+uint32(counts>>32) < t.RFCThreshold {
		return
	}
	t.reorders.add(prefix)
}

// PendingReorders drains the set of chains flagged for reordering. The
// deduplication daemon calls this in its service loop.
func (t *Table) PendingReorders() []uint64 { return t.reorders.drain() }

// ReorderChain sorts the IAA part of prefix's chain in descending RFC
// order using the crash-consistent protocol above. It returns true if a
// reorder was performed (chains shorter than three nodes are left alone:
// the head is position-fixed, so one overflow node has nothing to swap
// with).
func (t *Table) ReorderChain(prefix uint64) bool {
	mu := t.lockFor(prefix)
	mu.Lock()
	defer mu.Unlock()

	// Collect the IAA nodes in current order, one snapshot each.
	var nodes []Entry
	for cur := t.EntryAt(prefix).Next; cur != None; cur = nodes[len(nodes)-1].Next {
		nodes = append(nodes, t.EntryAt(cur))
	}
	if len(nodes) < 2 {
		return false
	}
	// Desired order: descending RFC (stable, so equal-RFC entries keep
	// their relative position).
	byRFC := func(i, j int) bool { return nodes[i].RFC > nodes[j].RFC }
	if sort.SliceIsSorted(nodes, byRFC) {
		return false
	}
	sort.SliceStable(nodes, byRFC)
	sorted := make([]uint64, len(nodes))
	for i, e := range nodes {
		sorted[i] = e.Idx
	}

	t.reorderCommit(prefix, sorted)
	atomic.AddInt64(&t.stats.Reorders, 1)
	return true
}

// reorderCommit performs the Fig. 7 protocol for the chain head prefix and
// the desired IAA node order. Chain lock held.
func (t *Table) reorderCommit(prefix uint64, order []uint64) {
	// Step 1: raise the commit flag (phase 1).
	t.setPrev(prefix, prefix)
	// Step 2: rewrite all prev fields to the new order.
	t.setPrevsForOrder(prefix, order)
	// Step 3: advance the flag to phase 2 (value = last node's index).
	t.setPrev(prefix, order[len(order)-1])
	// Step 4: rewrite all next fields to the new order.
	t.setNextsForOrder(prefix, order)
	// Step 5: drop the flag — reordering committed.
	t.setPrev(prefix, None)
}

func (t *Table) setPrevsForOrder(prefix uint64, order []uint64) {
	prev := prefix
	for _, idx := range order {
		t.setPrev(idx, prev)
		prev = idx
	}
}

func (t *Table) setNextsForOrder(prefix uint64, order []uint64) {
	cur := prefix
	for _, idx := range order {
		t.setNext(cur, idx)
		cur = idx
	}
	t.setNext(cur, None)
}

// recoverReorder completes the reorder a crash interrupted on head's chain
// (head.Prev is the raised commit flag) and lowers the flag. Both walks
// follow pointers read from the image, so each stops at the first one that
// leaves the IAA or repeats, and the chain is truncated there: a flag that
// names no IAA slot is read as phase 1, and a phase-2 walk that never gets
// back to the head links the head to the last node it reached.
func (t *Table) recoverReorder(head Entry) {
	p, flag := head.Idx, head.Prev
	seen := map[uint64]bool{}
	member := func(idx uint64) bool {
		if !t.inIAA(idx) || seen[idx] {
			return false
		}
		seen[idx] = true
		return true
	}
	if flag == p || !t.inIAA(flag) {
		// Phase 1 crash: next fields hold the old order; rebuild prevs.
		prev := p
		for cur := head.Next; cur != None; cur = t.EntryAt(cur).Next {
			if !member(cur) {
				t.setNext(prev, None)
				break
			}
			t.setPrev(cur, prev)
			prev = cur
		}
	} else {
		// Phase 2 crash: prev fields hold the new order; walk backwards
		// from the last node (the flag value) and rebuild the next fields.
		next := None
		for cur := flag; cur != p && member(cur); cur = t.EntryAt(cur).Prev {
			t.setNext(cur, next)
			next = cur
		}
		t.setNext(p, next)
	}
	t.setPrev(p, None)
}

// ChainOf returns the chain (head + IAA nodes) for a prefix, for tests and
// inspection.
func (t *Table) ChainOf(prefix uint64) []uint64 {
	mu := t.lockFor(prefix)
	mu.Lock()
	defer mu.Unlock()
	chain := []uint64{prefix}
	for cur := t.EntryAt(prefix).Next; cur != None; cur = t.EntryAt(cur).Next {
		chain = append(chain, cur)
	}
	return chain
}
