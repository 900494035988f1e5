package nova

import (
	"fmt"
	"sync/atomic"

	"denova/internal/layout"
	"denova/internal/obs"
	"denova/internal/rtree"
)

// Write is the CoW write of Fig. 1, the slow path: the byte range becomes
// one extent of whole pages (partial first/last pages merged with their
// current content) and goes through commitExtentsLocked's five steps.
// flag is the initial dedupe-flag of the entry (FlagNone on plain NOVA,
// FlagNeeded when deduplication is enabled). It returns the device offset
// of the committed write entry. sc is the caller's span context: the write
// becomes a child span (a fresh root when sc is zero, i.e. untraced) and its
// five steps become grandchildren at the fine trace level.
func (fs *FS) Write(in *Inode, off uint64, data []byte, flag uint8, sc obs.SpanContext) (uint64, error) {
	if len(data) == 0 {
		return 0, nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return fs.writeLocked(in, off, data, flag, sc)
}

// writeLocked is the slow path: a batch of one. It builds one extent from
// the caller's buffer and commits it. It alone triggers thorough GC — relink,
// truncate and dedup remaps grow the log too but never compact it.
func (fs *FS) writeLocked(in *Inode, off uint64, data []byte, flag uint8, sc obs.SpanContext) (uint64, error) {
	if in.dir {
		return 0, fmt.Errorf("write: inode %d: %w", in.ino, ErrIsDir)
	}
	// Quiesce the fast path first: a slow-path write is newer than anything
	// staged, so the staging overlay must not outlive it.
	if _, err := fs.relinkLocked(in); err != nil {
		return 0, err
	}
	t := fs.beginOp(sc)

	// Fully page-aligned writes stream the caller's buffer straight to the
	// device; partial first/last pages are assembled with the carried-over
	// bytes from their current mapping (CoW).
	end := off + uint64(len(data))
	pg0, pgEnd := off/PageSize, (end-1)/PageSize
	np := int64(pgEnd - pg0 + 1)
	buf := data
	if headPad, tailEnd := off%PageSize, end%PageSize; headPad != 0 || tailEnd != 0 {
		buf = make([]byte, np*PageSize)
		if headPad != 0 || (np == 1 && tailEnd != 0) {
			fs.readPageInto(in, pg0, buf[:PageSize])
		}
		if tailEnd != 0 && np > 1 {
			fs.readPageInto(in, pgEnd, buf[(np-1)*PageSize:])
		}
		copy(buf[headPad:], data)
		t.step(stepFill)
	}
	ext := [1]fileExtent{{pg: pg0, n: np, end: end, data: buf}}
	if err := fs.commitExtentsLocked(in, ext[:], flag, nil, &t); err != nil {
		return 0, err
	}
	e := &ext[0]
	if o := t.o; o != nil {
		t.end(o.Write, obs.OpWrite, in.ino, uint64(len(data)))
		o.WriteBytes.Add(int64(len(data)))
		if o.Fine {
			t.emitStep(o.WriteAlloc, obs.OpWriteAlloc, in.ino, e.block, t.steps[stepAlloc])
			t.emitStep(o.WriteFill, obs.OpWriteFill, in.ino, uint64(np), t.steps[stepFill])
			t.emitStep(o.WriteLog, obs.OpWriteLog, in.ino, e.entryOff, t.steps[stepLog])
			t.emitStep(o.WriteRadix, obs.OpWriteRadix, in.ino, pg0, t.steps[stepRadix])
			t.emitStep(o.WriteReclaim, obs.OpWriteReclaim, in.ino, 0, t.steps[stepReclaim])
		}
	}
	if in.shouldThoroughGC() {
		fs.thoroughGCLocked(in)
	}
	return e.entryOff, nil
}

// fileExtent is one contiguous run of file pages on its way into the log: one
// block run, one write entry. The caller supplies the pages and their
// content — data, n pages of contiguous bytes, or imgs, n separate page
// images — and commitExtentsLocked fills in block and entryOff.
type fileExtent struct {
	pg   uint64 // first file page
	n    int64  // pages
	end  uint64 // the entry's EndOff: the file size this extent reaches
	data []byte
	imgs [][]byte

	block, entryOff uint64
}

// commitExtentsLocked is the one path by which file data enters an inode
// log — Fig. 1 ①–⑤ for a batch of extents, with the slow-path write a batch
// of one, relink a batch of many and truncate's tail remap one page plus a
// trailer:
//
//	reserve a log slot per entry (the only step, with ①, that can fail:
//	  ENOSPC here or there leaves nothing appended and nothing allocated),
//	① allocate one contiguous block run per extent, all or nothing,
//	② fill the runs with non-temporal stores,
//	③ append one write entry per extent, then trailer if there is one, and
//	  commit them all with one fence and one atomic tail store,
//	④ install each extent's radix mappings and ⑤ reclaim what they shadow,
//
// then raise size and mtime and hand each entry to the write hook (the
// dedup daemon sees one enqueue per extent, not one per staged write). flag
// is the entries' initial dedupe-flag; t times the steps and carries the
// span the hook attributes its work to.
func (fs *FS) commitExtentsLocked(in *Inode, exts []fileExtent, flag uint8, trailer layout.Record, t *opTimer) error {
	slots := len(exts)
	if trailer != nil {
		slots++
	}
	if err := fs.reserve(in, slots); err != nil {
		return err
	}
	for i := range exts {
		block, err := fs.allocBlocks(in.ino, exts[i].n)
		if err != nil {
			for _, e := range exts[:i] {
				fs.alloc.Free(e.block, e.n)
			}
			return err
		}
		exts[i].block = block
	}
	t.step(stepAlloc)

	for i := range exts {
		e := &exts[i]
		dst := int64(e.block) * PageSize
		if e.imgs == nil {
			fs.Dev.WriteNT(dst, e.data)
		}
		for j, img := range e.imgs {
			fs.Dev.WriteNT(dst+int64(j)*PageSize, img)
		}
	}
	t.step(stepFill)

	mtime := fs.tick()
	for i := range exts {
		e := &exts[i]
		e.entryOff = fs.append(in, encodeWriteEntry(WriteEntry{
			DedupeFlag: flag,
			NumPages:   uint32(e.n),
			PgOff:      e.pg,
			Block:      e.block,
			EndOff:     e.end,
			Ino:        in.ino,
			Mtime:      mtime,
			Seq:        fs.nextSeq(),
		}))
	}
	if trailer != nil {
		// The trailer pins its log page with a live reference that is never
		// dropped: live counts track only write-entry references, and a page
		// whose writes are all dead may still hold a truncate entry that
		// earlier surviving entries depend on — fast-GC'ing it would
		// resurrect the truncated mappings at replay. Thorough GC releases
		// the pin when it rewrites the chain as a snapshot.
		in.addLiveLocked(fs.append(in, trailer), 1)
	}
	fs.commit(in)
	t.step(stepLog)

	for i := range exts {
		e := &exts[i]
		fs.installRadixLocked(in, e.pg, e.block, e.n, e.entryOff)
		t.step(stepRadix)
		fs.reclaimShadowedLocked(in)
		t.step(stepReclaim)
		if e.end > in.size {
			in.size = e.end
		}
	}
	in.mtime = mtime
	atomic.AddInt64(&fs.writes, int64(len(exts)))
	if fs.onWrite != nil {
		for i := range exts {
			fs.onWrite(in, exts[i].entryOff, t.sc)
		}
	}
	return nil
}

// installRadixLocked is step ④: it points file pages [pg0, pg0+np) at
// blocks [block, block+np), maintaining log-page live counts. Blocks
// shadowed by the new mappings are collected into in.shadow (a per-inode
// scratch reused across writes) for reclaimShadowedLocked — splitting radix
// update from reclamation lets the two steps be timed independently and
// matches the paper's step ④/⑤ boundary.
func (fs *FS) installRadixLocked(in *Inode, pg0, block uint64, np int64, entryOff uint64) {
	in.addLiveLocked(entryOff, int(np))
	in.shadow = in.shadow[:0]
	in.treeGen++
	for i := int64(0); i < np; i++ {
		newBlock := block + uint64(i)
		prev, replaced := in.tree.Insert(pg0+uint64(i), rtree.Value{Block: newBlock, Entry: entryOff})
		if !replaced {
			in.pages++
			continue
		}
		fs.dropLiveLocked(in, prev.Entry, 1)
		if prev.Block != newBlock {
			in.shadow = append(in.shadow, prev.Block)
		}
	}
}

// reclaimShadowedLocked is step ⑤: it releases the blocks collected in
// in.shadow — by installRadixLocked, or by a remap, truncate or delete — as
// one batch: through the releaser when one is installed (it frees what
// nothing else references, so shared blocks survive), straight back to the
// free pool otherwise. While a dedup daemon runs, a batch that fits goes to
// the reclaim queue instead and the daemon releases it off this path.
func (fs *FS) reclaimShadowedLocked(in *Inode) {
	if len(in.shadow) == 0 {
		return
	}
	if fs.releaser == nil || !fs.reclaim.push(in.shadow) {
		fs.reclaim.inline.Add(int64(len(in.shadow)))
		fs.release(in.shadow)
	}
	in.shadow = in.shadow[:0]
}

// readPageInto copies the current contents of file page pg into dst (one
// page), zero-filling when the page is unmapped. Caller holds the lock.
func (fs *FS) readPageInto(in *Inode, pg uint64, dst []byte) {
	if v, ok := in.tree.Lookup(pg); ok {
		fs.Dev.Read(int64(v.Block)*PageSize, dst[:PageSize])
		return
	}
	clear(dst[:PageSize])
}

// Read copies up to len(buf) bytes starting at off into buf, returning the
// number of bytes read. Reads past the file size return n < len(buf); reads
// of holes return zeros. Concurrent readers are admitted (read lock); the
// read path touches neither FACT nor the DWQ (§V-B4). Pages staged in DRAM
// and not yet relinked overlay the radix tree, so the fast write path is
// read-your-writes without the inode write lock. sc is the caller's span
// context (zero = untraced).
func (fs *FS) Read(in *Inode, off uint64, buf []byte, sc obs.SpanContext) (int, error) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if in.dir {
		return 0, fmt.Errorf("read: inode %d: %w", in.ino, ErrIsDir)
	}
	size := in.size
	st := in.stage
	if st != nil {
		st.mu.RLock()
		defer st.mu.RUnlock()
		size = st.effectiveSize(size)
	}
	if off >= size {
		return 0, nil
	}
	t := fs.beginOp(sc)
	n := uint64(len(buf))
	if off+n > size {
		n = size - off
	}
	atomic.AddInt64(&fs.reads, 1)
	read := uint64(0)
	page := make([]byte, PageSize)
	for read < n {
		pg := (off + read) / PageSize
		po := (off + read) % PageSize
		chunk := PageSize - po
		if chunk > n-read {
			chunk = n - read
		}
		if st != nil {
			if img, ok := st.pages[pg]; ok {
				copy(buf[read:read+chunk], img[po:po+chunk])
				read += chunk
				continue
			}
		}
		if v, ok := in.tree.Lookup(pg); ok {
			if po == 0 && chunk == PageSize {
				fs.Dev.Read(int64(v.Block)*PageSize, buf[read:read+PageSize])
			} else {
				fs.Dev.Read(int64(v.Block)*PageSize, page)
				copy(buf[read:read+chunk], page[po:po+chunk])
			}
		} else {
			clear(buf[read : read+chunk])
		}
		read += chunk
	}
	if o := t.o; o != nil {
		t.end(o.Read, obs.OpRead, in.ino, n)
		o.ReadBytes.Add(int64(n))
	}
	return int(n), nil
}

// deleteInodeLocked tears a file down: every referenced data block is
// released (the releaser decides whether shared blocks survive), the log
// chain is freed, and the persistent inode is invalidated with a single
// atomic store. Caller holds the inode lock.
func (fs *FS) deleteInodeLocked(in *Inode) {
	// Staged bytes die with the file: they were never promised durable.
	in.discardStagingLocked()
	if n := int(in.pages); cap(in.shadow) < n {
		in.shadow = make([]uint64, 0, n)
	}
	in.tree.Walk(func(_ uint64, v rtree.Value) bool {
		in.shadow = append(in.shadow, v.Block)
		return true
	})
	fs.reclaimShadowedLocked(in)
	in.tree.Clear()
	in.treeGen++
	for _, pg := range in.logPages {
		fs.alloc.Free(pg, 1)
	}
	in.logPages = nil
	in.live = map[uint64]int{}
	in.pages = 0
	in.size = 0
	// Invalidate: clearing the flags word removes the inode atomically.
	fs.Dev.PersistStore64(fs.inodeOff(in.ino)+inFlags, 0)
}
