package nova

import (
	"sort"
	"sync/atomic"
	"time"

	"denova/internal/obs"
	"denova/internal/rtree"
)

// Thorough garbage collection. Fast GC (log.go) reclaims log pages whose
// entries are all dead; it cannot help when live entries are sprinkled
// thinly across many pages. NOVA's thorough GC copies the live entries
// into a compact new chain and swaps it in with a single atomic store to
// the inode's log head — the same commit discipline as everything else:
//
//	① allocate fresh log pages and write one write entry per contiguous
//	   live run of the current radix state,
//	② link the new chain's last page to the page holding the log tail
//	   (which keeps accepting appends and is never copied),
//	③ persist everything, then atomically store the new head.
//
// A crash before ③ leaves the old chain intact (the orphan new pages fall
// out of the recovery bitmap); after ③ the new chain is the log. Entries
// still flagged dedupe_needed are re-enqueued through the write hook,
// because their old offsets die with the old pages.

// gcLiveThreshold triggers thorough GC on an append that grows the log
// while the chain is mostly dead: more than gcMinPages pages and fewer
// than 1/gcLiveThreshold of the entry slots live.
const (
	gcMinPages      = 4
	gcLiveThreshold = 4
)

// shouldThoroughGC reports whether the inode's log is worth compacting.
func (in *Inode) shouldThoroughGC() bool {
	if in.dir || len(in.logPages) <= gcMinPages {
		return false
	}
	liveTotal := 0
	for _, n := range in.live {
		liveTotal += n
	}
	capacity := (len(in.logPages) - 1) * EntriesPerLogPage
	return liveTotal*gcLiveThreshold < capacity
}

// thoroughGCLocked compacts the inode's log. Returns the number of log
// pages reclaimed (0 when compaction was not worthwhile). The inode lock
// must be held, and the log must have no uncommitted appends.
func (fs *FS) thoroughGCLocked(in *Inode) (reclaimedPages int) {
	if in.pending != 0 && in.pending != in.logTail {
		return 0 // uncommitted entries in flight; caller bug, stay safe
	}
	if o := fs.obs; o != nil {
		start := time.Now()
		defer func() {
			d := time.Since(start)
			o.GC.Observe(d)
			o.Tracer.Emit(obs.OpGCThorough, in.ino, uint64(reclaimedPages), d)
		}()
	}
	tailPage := pageOfOff(in.logTail)

	// Gather the live state: contiguous (file page, block) runs that share
	// a backing entry, from pages whose entries live outside the tail page
	// (the tail page is kept, so its entries stay valid as-is).
	type mapping struct {
		pg, block, entry uint64
	}
	var maps []mapping
	in.tree.Walk(func(pg uint64, v rtree.Value) bool {
		if pageOfOff(v.Entry) != tailPage {
			maps = append(maps, mapping{pg, v.Block, v.Entry})
		}
		return true
	})
	if len(maps) == 0 {
		return 0
	}
	sort.Slice(maps, func(i, j int) bool { return maps[i].pg < maps[j].pg })

	// Coalesce into runs: consecutive file pages with consecutive blocks
	// from the same original entry become one copied entry (preserving the
	// entry-granular dedupe flags).
	type run struct {
		pg, block, entry uint64
		n                uint32
	}
	var runs []run
	for _, m := range maps {
		if len(runs) > 0 {
			last := &runs[len(runs)-1]
			if m.pg == last.pg+uint64(last.n) && m.block == last.block+uint64(last.n) && m.entry == last.entry {
				last.n++
				continue
			}
		}
		runs = append(runs, run{m.pg, m.block, m.entry, 1})
	}

	// ① Write the copies into fresh pages, chained together. One extra slot
	// holds a truncate entry recording the current size: run end-offsets are
	// capped at the size, so without it a size established by a grow-only
	// truncate (a trailing hole) would be lost with the old chain.
	slots := len(runs) + 1
	pagesNeeded := (slots + EntriesPerLogPage - 1) / EntriesPerLogPage
	newPages := make([]uint64, 0, pagesNeeded)
	for i := 0; i < pagesNeeded; i++ {
		pg, err := fs.allocBlocks(in.ino, 1)
		if err != nil {
			for _, p := range newPages {
				fs.alloc.Free(p, 1)
			}
			return 0
		}
		newPages = append(newPages, pg)
	}
	if len(newPages)*EntriesPerLogPage < slots {
		panic("nova: thorough GC sizing error")
	}
	for i, pg := range newPages {
		next := uint64(0)
		if i+1 < len(newPages) {
			next = newPages[i+1]
		} else {
			next = tailPage // ② splice onto the live tail page
		}
		fs.initLogPage(pg, next)
	}
	type placed struct {
		run    run
		newOff uint64
		flag   uint8
	}
	placeds := make([]placed, 0, len(runs))
	for i, r := range runs {
		page := newPages[i/EntriesPerLogPage]
		slot := i % EntriesPerLogPage
		off := page*PageSize + uint64(slot*EntrySize)
		we, err := ReadWriteEntry(fs.Dev, r.entry)
		if err != nil {
			// The source entry must be readable (it is before the tail);
			// treat corruption as a reason to abort the compaction.
			for _, p := range newPages {
				fs.alloc.Free(p, 1)
			}
			return 0
		}
		end := (r.pg + uint64(r.n)) * PageSize
		if end > in.size {
			end = in.size
		}
		copyEntry := WriteEntry{
			DedupeFlag: we.DedupeFlag,
			NumPages:   r.n,
			PgOff:      r.pg,
			Block:      r.block,
			EndOff:     end,
			Ino:        in.ino,
			Mtime:      we.Mtime,
			Seq:        fs.nextSeq(),
		}
		rec := encodeWriteEntry(copyEntry)
		fs.Dev.Write(int64(off), rec)
		fs.Dev.Persist(int64(off), EntrySize)
		placeds = append(placeds, placed{run: r, newOff: off, flag: we.DedupeFlag})
	}
	{
		i := len(runs)
		page := newPages[i/EntriesPerLogPage]
		off := int64(page*PageSize + uint64((i%EntriesPerLogPage)*EntrySize))
		fs.Dev.Write(off, encodeTruncateEntry(in.ino, in.size, fs.nextSeq()))
		fs.Dev.Persist(off, EntrySize)
	}
	// Zero the unused slots of the last new page. Unlike the append path —
	// where the tail pointer bounds entry validity — every slot of these
	// pages sits before the tail, and a freshly allocated block may carry
	// real-looking entries from its previous life as a log page. Replay
	// skips explicit zero slots (EntryInvalid).
	if used := slots % EntriesPerLogPage; used != 0 {
		last := newPages[len(newPages)-1]
		off := int64(last*PageSize + uint64(used*EntrySize))
		n := (EntriesPerLogPage - used) * EntrySize
		fs.Dev.Write(off, make([]byte, n))
		fs.Dev.Persist(off, n)
	}

	// ③ Commit: the atomic head store makes the new chain the log.
	fs.Dev.PersistStore64(fs.inodeOff(in.ino)+inLogHead, newPages[0])

	// DRAM state: remap radix entries to the copies, rebuild the page list
	// and live counts, free the old pages (all except the tail page).
	newLive := make(map[uint64]int, len(newPages)+1)
	in.treeGen++
	for _, p := range placeds {
		for i := uint64(0); i < uint64(p.run.n); i++ {
			in.tree.Insert(p.run.pg+i, rtree.Value{Block: p.run.block + i, Entry: p.newOff})
		}
		newLive[pageOfOff(p.newOff)] += int(p.run.n)
	}
	newLive[tailPage] = in.live[tailPage]
	// Pin the compacted chain's truncate entry like any other (see
	// commitExtentsLocked): its page must survive fast GC even with every
	// copied write entry dead.
	newLive[newPages[len(runs)/EntriesPerLogPage]]++
	// Spare pages linked past the tail page by reserve stay chained from
	// it: freeing them would leave the tail page's persistent next link
	// dangling. They carry over empty.
	tailIdx := in.logPageIndex(tailPage)
	spares := in.logPages[tailIdx+1:]
	for _, sp := range spares {
		newLive[sp] = 0
	}
	reclaimed := 0
	for _, old := range in.logPages[:tailIdx] {
		fs.alloc.Free(old, 1)
		reclaimed++
	}
	in.logHead = newPages[0]
	in.logPages = append(append(newPages, tailPage), spares...)
	in.live = newLive
	atomic.AddInt64(&fs.gcLogPages, int64(reclaimed))
	atomic.AddInt64(&fs.gcThorough, 1)

	// Entries awaiting deduplication moved; re-feed the queue with their
	// new offsets (the stale nodes for the old offsets will be skipped).
	if fs.onWrite != nil {
		for _, p := range placeds {
			if p.flag == FlagNeeded {
				fs.onWrite(in, p.newOff, PageImages{}, obs.SpanContext{})
			}
		}
	}
	return reclaimed
}

// MaybeThoroughGC compacts the log if it is mostly dead. Public so the
// dedup daemon or tooling can trigger it; the write path calls it
// opportunistically when the log grows a page.
func (fs *FS) MaybeThoroughGC(in *Inode) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	// Quiesce the fast path: compaction snapshots the radix state, so
	// staged-but-unrelinked pages must reach the log first.
	if _, err := fs.relinkLocked(in); err != nil {
		return 0
	}
	if !in.shouldThoroughGC() {
		return 0
	}
	return fs.thoroughGCLocked(in)
}

// ForceThoroughGC compacts unconditionally (test support).
func (fs *FS) ForceThoroughGC(in *Inode) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, err := fs.relinkLocked(in); err != nil {
		return 0
	}
	return fs.thoroughGCLocked(in)
}
