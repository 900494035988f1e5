package dedup

import (
	"sync"
	"sync/atomic"
	"time"

	"denova/internal/fact"
	"denova/internal/nova"
	"denova/internal/obs"
)

// Engine executes deduplication transactions against a mounted NOVA file
// system and its FACT. It implements nova.BlockReleaser, so reclamation of
// data pages consults the FACT reference counts (§IV-D3), and provides the
// write hook that feeds the DWQ.
//
// ProcessEntry is safe for any number of concurrent callers: the inode lock
// serializes the revalidation and the transaction proper on one file (the
// fingerprinting in between runs unlocked, and what it hashed is checked
// again under the lock), the FACT's striped chain locks serialize
// lookups/inserts on one chain, and every count transfer is a single atomic
// 8-byte persist, so no interleaving of workers can expose a state the
// single-threaded daemon could not (see DESIGN.md "Parallel dedup").
type Engine struct {
	fs    *nova.FS
	table *fact.Table
	dwq   *DWQ

	// quiesce is held shared by every dedup consumer (daemon workers,
	// Drain, inline writes) for the duration of a batch, and exclusively by
	// the scrubber, whose unreferenced-stays-unreferenced argument needs
	// all consumers parked at a batch boundary.
	quiesce sync.RWMutex //denova:locks(dedup.quiesce)

	obs        *Observer             // metrics/tracing; nil = uninstrumented
	userLinger func(d time.Duration) // user-facing DWQ linger hook (see SetLingerHook)

	// hashed, when set (by tests only, before any consumer runs), is called
	// between ProcessEntry's unlocked fingerprinting and its relock.
	hashed func(Node)
	// hintHashed, when set (by tests only, before any consumer runs), is
	// called in the unlocked window for each page hashed from a hint image,
	// with the free-pin that still covers its block.
	hintHashed func(pin *nova.FreePin, block uint64, fp fact.FP)

	stats Stats
}

// Stats aggregates engine activity.
type Stats struct {
	EntriesProcessed int64 // DWQ nodes fully processed
	EntriesSkipped   int64 // stale nodes (file deleted, entry shadowed/reused)
	PagesScanned     int64 // pages fingerprinted
	PagesHinted      int64 // of those, pages hashed from a relink's DRAM image
	PagesDuplicate   int64 // pages remapped onto canonical blocks
	PagesUnique      int64 // pages that created FACT entries
	PagesStale       int64 // pages skipped (shadowed before dedup ran)
	PagesOwned       int64 // pages that already owned their FACT entry (re-processing)
	BytesDeduped     int64 // duplicate bytes eliminated
}

func (e *Engine) snapshotStats() Stats {
	return Stats{
		EntriesProcessed: atomic.LoadInt64(&e.stats.EntriesProcessed),
		EntriesSkipped:   atomic.LoadInt64(&e.stats.EntriesSkipped),
		PagesScanned:     atomic.LoadInt64(&e.stats.PagesScanned),
		PagesHinted:      atomic.LoadInt64(&e.stats.PagesHinted),
		PagesDuplicate:   atomic.LoadInt64(&e.stats.PagesDuplicate),
		PagesUnique:      atomic.LoadInt64(&e.stats.PagesUnique),
		PagesStale:       atomic.LoadInt64(&e.stats.PagesStale),
		PagesOwned:       atomic.LoadInt64(&e.stats.PagesOwned),
		BytesDeduped:     atomic.LoadInt64(&e.stats.BytesDeduped),
	}
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return e.snapshotStats() }

// NewEngine wires an engine to a mounted FS and FACT: it installs itself as
// the FS block releaser and registers the DWQ-feeding write hook.
func NewEngine(fs *nova.FS, table *fact.Table) *Engine {
	e := &Engine{fs: fs, table: table, dwq: NewDWQ()}
	fs.SetReleaser(e)
	fs.SetWriteHook(func(in *nova.Inode, entryOff uint64, imgs nova.PageImages, sc obs.SpanContext) {
		if o := e.obs; o != nil {
			o.Enqueues.Inc()
			if o.Fine {
				o.Tracer.EmitSpan(obs.OpDedupEnqueue, o.Tracer.StartChild(sc), sc.Span, in.Ino(), entryOff, time.Time{}, 0)
			}
		}
		e.dwq.Enqueue(Node{
			Ino: in.Ino(), EntryOff: entryOff,
			Trace: sc.Trace, Span: sc.Span, Tenant: sc.Tenant,
			Hint: imgs,
		})
	})
	return e
}

// DWQ returns the engine's work queue.
func (e *Engine) DWQ() *DWQ { return e.dwq }

// Table returns the engine's FACT.
func (e *Engine) Table() *fact.Table { return e.table }

// FS returns the engine's file system.
func (e *Engine) FS() *nova.FS { return e.fs }

// Release implements nova.BlockReleaser: the DeNOVA reclaiming path. Each
// block's FACT entry is found through the delete pointer; a block is freed
// only when its reference count reaches zero (§IV-C "delete pointer",
// §IV-D3).
func (e *Engine) Release(blocks []uint64, free func(block uint64)) {
	e.table.DecRefBatch(blocks, free)
}

// candPage is a page ProcessEntry fingerprints: mapped, when the node was
// revalidated, by the node's own entry. img, when set, is the node's hint
// image of the page, which ProcessEntry hashes instead of the block.
type candPage struct {
	pg, block uint64
	img       []byte
	fp        fact.FP
}

// pageTxn records one page's position in an open transaction.
type pageTxn struct {
	pg        uint64
	block     uint64 // block the write entry assigned to this page
	factIdx   uint64
	canonical uint64
	dup       bool
	aborted   bool
	entryOff  uint64 // the remapping write entry appended for a duplicate
}

// Scratch is one dedup consumer's working memory, reused from node to node:
// the page being fingerprinted and the per-node page and transaction lists.
// Each consumer (a daemon worker, a Drain call) owns one; the zero value is
// ready to use.
type Scratch struct {
	chunk  [ChunkSize]byte
	cands  []candPage
	txns   []pageTxn
	commit []uint64
}

// ProcessEntry runs Algorithm 1 for one DWQ node. Returns false if the
// node was stale (file deleted, entry shadowed, or flag already advanced).
//
// The transaction follows Fig. 6:
//
//	① the node was dequeued by the caller,
//	② fingerprints are generated and looked up in the FACT — in three
//	   phases: under the inode lock the node is revalidated and the pages
//	   its entry still maps are collected; the lock is dropped and those
//	   pages are hashed behind a free-pin (nova.FS.PinFrees), so the
//	   foreground is not held up by T_f — from the node's hint images
//	   where they are still valid, read from PM otherwise; under the lock
//	   again the node is revalidated and, if the radix tree changed
//	   meanwhile, every page no longer mapped by the node's entry to the
//	   block that was hashed is dropped,
//	③ the UC of each touched FACT entry is raised (BeginTxn),
//	④ a new write entry is appended per duplicate page, pointing at the
//	   canonical block, with dedupe-flag in_process,
//	⑤ the log tail is committed atomically; the target entry's flag moves
//	   dedupe_needed → in_process,
//	⑥ each UC is transferred to the RFC with one atomic store; flags move
//	   to dedupe_complete and obsolete duplicate blocks are reclaimed.
func (e *Engine) ProcessEntry(node Node, sc *Scratch) bool {
	// Stage timing (revalidate → fingerprint → fact_txn → remap) plus the
	// end-to-end dedup.process histogram. The daemon is off the foreground
	// write path, so stage histograms are always recorded when an observer
	// is installed; per-stage trace events only at the fine level.
	o := e.obs
	var start, mark time.Time
	var psc obs.SpanContext
	if o != nil {
		// The process span is a child of the originating write's span (the
		// node carries that context from the write hook) — the causal link
		// that makes an async FACT txn attributable to the request and
		// tenant that enqueued it. Untraced nodes get a zero context and
		// emit plain events, as before.
		psc = o.Tracer.StartChild(obs.SpanContext{Trace: node.Trace, Span: node.Span, Tenant: node.Tenant})
		start = time.Now()
		mark = start
	}
	stage := func(op obs.Op, arg uint64) {
		if o == nil {
			return
		}
		now := time.Now()
		d := now.Sub(mark)
		stStart := mark
		mark = now
		var h *obs.Histogram
		switch op {
		case obs.OpDedupRevalidate:
			h = o.Revalidate
		case obs.OpDedupFingerprint:
			h = o.Fingerprint
		case obs.OpDedupFactTxn:
			h = o.FactTxn
		case obs.OpDedupRemap:
			h = o.Remap
		}
		h.ObserveSpan(d, psc.Trace)
		if o.Fine {
			o.Tracer.EmitSpan(op, o.Tracer.StartChild(psc), psc.Span, node.Ino, arg, stStart, d)
		}
	}
	finish := func(processed bool) bool {
		if o != nil {
			d := time.Since(start)
			o.Process.ObserveSpan(d, psc.Trace)
			o.Tracer.EmitSpan(obs.OpDedupProcess, psc, node.Span, node.Ino, node.EntryOff, start, d)
		}
		return processed
	}

	in, ok := e.fs.Inode(node.Ino)
	if !ok {
		atomic.AddInt64(&e.stats.EntriesSkipped, 1)
		return finish(false)
	}
	in.Lock()
	cands, gen, pin, ok := e.collectLocked(in, node, sc)
	in.Unlock()
	if !ok {
		atomic.AddInt64(&e.stats.EntriesSkipped, 1)
		return finish(false)
	}
	defer pin.Release()
	stage(obs.OpDedupRevalidate, node.EntryOff)

	// ② Unlocked: hash every candidate page, from its hint image when it
	// has one. A page the pin can no longer read (a forced drain freed
	// limbo) ends the scan; the rest stay un-deduplicated.
	chunk, hashed, hinted := sc.chunk[:], 0, 0
	for ; hashed < len(cands); hashed++ {
		c := &cands[hashed]
		if c.img != nil {
			c.fp = Strong(c.img)
			hinted++
			if e.hintHashed != nil {
				e.hintHashed(&pin, c.block, c.fp)
			}
			continue
		}
		if !pin.ReadPinned(c.block, chunk) {
			break
		}
		c.fp = Strong(chunk)
	}
	atomic.AddInt64(&e.stats.PagesScanned, int64(hashed))
	atomic.AddInt64(&e.stats.PagesHinted, int64(hinted))
	if o != nil {
		o.PagesHinted.Add(int64(hinted))
	}
	atomic.AddInt64(&e.stats.PagesStale, int64(len(cands)-hashed))
	cands = cands[:hashed]
	stage(obs.OpDedupFingerprint, uint64(hashed))
	if e.hashed != nil {
		e.hashed(node)
	}

	// ② Relocked: the node must still be this inode's and still need
	// deduplication; a page whose mapping may have moved must map the
	// hashed block from the node's entry still.
	in.Lock()
	defer in.Unlock()
	if !in.OwnsEntry(node.EntryOff) || nova.DedupeFlagOf(e.fs.Dev, node.EntryOff) != nova.FlagNeeded {
		atomic.AddInt64(&e.stats.EntriesSkipped, 1)
		return finish(false)
	}
	if in.TreeGenLocked() != gen {
		broken := pin.Broken()
		kept := cands[:0]
		for _, c := range cands {
			// A broken pin freed blocks that may since hold another
			// writer's data under a recycled entry: trust no page.
			if block, entryOff, mapped := in.Mapping(c.pg); !broken && mapped && block == c.block && entryOff == node.EntryOff {
				kept = append(kept, c)
			}
		}
		atomic.AddInt64(&e.stats.PagesStale, int64(len(cands)-len(kept)))
		cands = kept
	}
	pin.Release()

	// ③ Open a FACT transaction per page.
	txns := sc.txns[:0]
	for _, c := range cands {
		res, err := e.table.BeginTxn(c.fp, c.block)
		if err != nil {
			// FACT full: stop opening transactions; everything begun so
			// far still commits below, the rest simply stays un-deduped.
			break
		}
		if res.Dup && res.Canonical == c.block {
			// Re-processed entry (Inconsistency Handling III): the page
			// already owns its FACT entry. Drop the UC; nothing to do.
			e.table.AbortTxn(res.Idx)
			atomic.AddInt64(&e.stats.PagesOwned, 1)
			continue
		}
		txns = append(txns, pageTxn{pg: c.pg, block: c.block, factIdx: res.Idx, canonical: res.Canonical, dup: res.Dup})
	}
	sc.txns = txns

	// ④ Append a remapping write entry per duplicate page: each reserves
	// its own log slot and lands flushed but unfenced.
	size := in.SizeLocked()
	for i := range txns {
		txn := &txns[i]
		if !txn.dup {
			continue
		}
		off, err := e.fs.AppendDedupEntryLocked(in, txn.pg, txn.canonical, size, nova.FlagInProcess)
		if err != nil {
			// Log append failed (out of space): abandon this page's remap
			// and drop its update count; the page simply stays un-deduped.
			e.table.AbortTxn(txn.factIdx)
			txn.aborted = true
			continue
		}
		txn.entryOff = off
	}

	// ⑤ One fence orders the appended entries and one atomic tail store
	// publishes them all; the target entry enters in_process.
	e.fs.CommitLocked(in)
	nova.SetDedupeFlag(e.fs.Dev, node.EntryOff, nova.FlagInProcess)

	// ⑥ Transfer UC→RFC for every open transaction — batched: one CAS +
	// flush per counts word, one fence for the whole entry.
	commitIdxs := sc.commit[:0]
	for _, txn := range txns {
		if txn.aborted {
			continue
		}
		commitIdxs = append(commitIdxs, txn.factIdx)
	}
	sc.commit = commitIdxs
	e.table.CommitTxnBatch(commitIdxs)
	stage(obs.OpDedupFactTxn, uint64(len(commitIdxs)))
	// Remap duplicate pages onto their canonical blocks; the shadowed
	// duplicate copies flow through Release → no FACT entry → freed.
	remapped := 0
	for _, txn := range txns {
		switch {
		case !txn.dup:
			atomic.AddInt64(&e.stats.PagesUnique, 1)
		case !txn.aborted:
			e.fs.RemapLocked(in, txn.pg, txn.canonical, txn.entryOff)
			atomic.AddInt64(&e.stats.PagesDuplicate, 1)
			atomic.AddInt64(&e.stats.BytesDeduped, ChunkSize)
			nova.SetDedupeFlag(e.fs.Dev, txn.entryOff, nova.FlagComplete)
			remapped++
		}
	}
	nova.SetDedupeFlag(e.fs.Dev, node.EntryOff, nova.FlagComplete)
	stage(obs.OpDedupRemap, uint64(remapped))
	atomic.AddInt64(&e.stats.EntriesProcessed, 1)
	return finish(true)
}

// collectLocked revalidates node against the live log and collects, into
// sc.cands, the pages its entry still maps, each with its hint image when
// the node's hint is still valid. It returns them with the radix tree's
// mutation counter and a free-pin covering their blocks, or ok false for a
// stale node. The caller holds the inode lock.
//
// The hint is valid only if the entry at node.EntryOff is still the one
// relink hooked — same Seq, Block and page count; the same offset may hold
// a newer entry once thorough GC freed the log page — and a page's image is
// used only while the page maps the block that image was written to.
func (e *Engine) collectLocked(in *nova.Inode, node Node, sc *Scratch) (cands []candPage, gen uint64, pin nova.FreePin, ok bool) {
	// The inode slot or the log page could have been reused since enqueue.
	// The ownership check must come first — a reclaimed page may already
	// belong to another inode, whose appends are synchronized by a
	// different lock, so even reading its bytes here would be a data race.
	if !in.OwnsEntry(node.EntryOff) || nova.DedupeFlagOf(e.fs.Dev, node.EntryOff) != nova.FlagNeeded {
		return nil, 0, pin, false
	}
	we, err := nova.ReadWriteEntry(e.fs.Dev, node.EntryOff)
	if err != nil || we.Ino != node.Ino {
		return nil, 0, pin, false
	}
	imgs := node.Hint.Imgs
	if node.Hint.Seq != we.Seq || node.Hint.Block != we.Block || len(imgs) != int(we.NumPages) {
		imgs = nil
	}
	cands = sc.cands[:0]
	for pg := we.PgOff; pg < we.PgOff+uint64(we.NumPages); pg++ {
		block, entryOff, mapped := in.Mapping(pg)
		if !mapped || entryOff != node.EntryOff {
			atomic.AddInt64(&e.stats.PagesStale, 1)
			continue // shadowed by a later foreground write
		}
		c := candPage{pg: pg, block: block}
		if i := pg - we.PgOff; imgs != nil && block == we.Block+i {
			c.img = imgs[i]
		}
		cands = append(cands, c)
	}
	sc.cands = cands
	return cands, in.TreeGenLocked(), e.fs.PinFrees(), true
}
