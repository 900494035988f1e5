package dedup

import (
	"sync/atomic"

	"denova/internal/nova"
)

// WriteInline is the DENOVA-Inline baseline of §V-A: the full
// deduplication pipeline — chunking, SHA-1 fingerprinting, FACT lookup,
// metadata update, and unique-chunk storage — executed synchronously in
// the critical write path, modelled on NV-Dedup's methodology. Duplicate
// pages are never written to the device; their write entries point
// straight at the canonical blocks.
//
// The paper uses this variant to demonstrate that on ultra-low-latency
// devices T_f dominates T_w (Eq. 1–3), collapsing write throughput by
// 50–80 % (Fig. 8) no matter how optimized the inline pipeline is.
func (e *Engine) WriteInline(in *nova.Inode, off uint64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	// An inline write is a dedup consumer too: hold the scrub-quiescing
	// lock (shared) so a concurrent scrubber never observes its open UCs as
	// leaked (lock order: quiesce → inode → FACT stripe).
	e.quiesce.RLock()
	defer e.quiesce.RUnlock()
	in.Lock()
	defer in.Unlock()

	pg0 := off / nova.PageSize
	pgEnd := (off + uint64(len(data)) - 1) / nova.PageSize
	end := off + uint64(len(data))

	// Assemble each page image (CoW merge of partial head/tail pages),
	// fingerprint it, and resolve it against the FACT before anything is
	// written — the defining property of inline deduplication.
	var page [ChunkSize]byte // an inline write is its own consumer: its page image lives in this frame
	chunk := page[:]
	plans := make([]pagePlan, 0, pgEnd-pg0+1)
	for pg := pg0; pg <= pgEnd; pg++ {
		e.assemblePage(in, pg, off, data, chunk)
		fp := Strong(chunk)
		atomic.AddInt64(&e.stats.PagesScanned, 1)

		// Allocate a block up front; if the chunk turns out to be a
		// duplicate the block goes straight back (it was never written).
		block, err := e.fs.Allocator().Alloc(int(in.Ino()), 1)
		if err != nil {
			e.abortPlans(plans)
			return err
		}
		res, err := e.table.BeginTxn(fp, block)
		if err != nil {
			e.fs.Allocator().Free(block, 1)
			e.abortPlans(plans)
			return err
		}
		if res.Dup {
			e.fs.Allocator().Free(block, 1)
			atomic.AddInt64(&e.stats.PagesDuplicate, 1)
			atomic.AddInt64(&e.stats.BytesDeduped, ChunkSize)
		} else {
			e.fs.Dev.WriteNT(int64(block)*nova.PageSize, chunk)
			atomic.AddInt64(&e.stats.PagesUnique, 1)
		}
		plans = append(plans, pagePlan{pg: pg, factIdx: res.Idx, canonical: res.Canonical, dup: res.Dup})
	}

	// Append one write entry per page (duplicates and uniques alike point
	// at their canonical block) and commit them with one fence and a single
	// tail store.
	for i := range plans {
		p := &plans[i]
		eoff, err := e.fs.AppendDedupEntryLocked(in, p.pg, p.canonical, end, nova.FlagComplete)
		if err != nil {
			// Roll the remaining transactions back; entries already
			// appended are not yet committed (tail unchanged) and will be
			// overwritten by future appends.
			e.abortPlans(plans[i:])
			return err
		}
		p.entryOff = eoff
	}
	e.fs.CommitLocked(in)

	// Transfer the counts and install the mappings.
	for _, p := range plans {
		e.table.CommitTxn(p.factIdx)
		e.fs.RemapLocked(in, p.pg, p.canonical, p.entryOff)
	}
	e.fs.BumpSizeLocked(in, end)
	atomic.AddInt64(&e.stats.EntriesProcessed, 1)
	return nil
}

// assemblePage builds the post-write image of file page pg into chunk.
func (e *Engine) assemblePage(in *nova.Inode, pg, off uint64, data []byte, chunk []byte) {
	pageStart := pg * nova.PageSize
	// Start from the current contents when the write covers the page only
	// partially.
	covers := off <= pageStart && off+uint64(len(data)) >= pageStart+nova.PageSize
	if covers {
		copy(chunk, data[pageStart-off:])
		return
	}
	if block, _, ok := in.Mapping(pg); ok {
		e.fs.ReadBlock(block, chunk)
	} else {
		for i := range chunk {
			chunk[i] = 0
		}
	}
	// Overlay the written byte range.
	lo := pageStart
	if off > lo {
		lo = off
	}
	hi := pageStart + nova.PageSize
	if off+uint64(len(data)) < hi {
		hi = off + uint64(len(data))
	}
	copy(chunk[lo-pageStart:hi-pageStart], data[lo-off:hi-off])
}

// pagePlan is one page's resolution in an inline write.
type pagePlan struct {
	pg        uint64
	factIdx   uint64
	canonical uint64
	dup       bool
	entryOff  uint64
}

// abortPlans rolls open transactions back: the UC is dropped, and for
// unique chunks the freshly inserted FACT entry is removed and its block
// returned to the allocator (it was written but never referenced by any
// committed write entry).
func (e *Engine) abortPlans(plans []pagePlan) {
	var inserted []uint64
	for _, p := range plans {
		e.table.AbortTxn(p.factIdx)
		if !p.dup {
			inserted = append(inserted, p.canonical)
		}
	}
	e.table.DecRefBatch(inserted, func(b uint64) { e.fs.Allocator().Free(b, 1) })
}
