package nova

import (
	"fmt"
	"sync/atomic"
	"time"

	"denova/internal/obs"
	"denova/internal/rtree"
)

// Write implements the five-step CoW write flow of Fig. 1:
//
//	① allocate contiguous data pages, merging partial head/tail pages,
//	② fill them (non-temporal stores) with user data and carried-over bytes,
//	③ append a [filepgoff, numpages] write entry and commit the log tail
//	   with an atomic 64-bit persistent store,
//	④ update the DRAM radix tree, and
//	⑤ reclaim the shadowed data pages (through the block releaser).
//
// flag is the initial dedupe-flag of the entry (FlagNone on plain NOVA,
// FlagNeeded when deduplication is enabled). It returns the device offset
// of the committed write entry.
func (fs *FS) Write(in *Inode, off uint64, data []byte, flag uint8) (uint64, error) {
	return fs.WriteCtx(in, off, data, flag, obs.SpanContext{})
}

// WriteCtx is Write carrying the caller's span context: the write becomes
// a child span (or a fresh root for untraced callers) and its five steps
// become grandchildren at the fine trace level.
func (fs *FS) WriteCtx(in *Inode, off uint64, data []byte, flag uint8, sc obs.SpanContext) (uint64, error) {
	if len(data) == 0 {
		return 0, nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return fs.writeLocked(in, off, data, flag, sc)
}

func (fs *FS) writeLocked(in *Inode, off uint64, data []byte, flag uint8, sc obs.SpanContext) (uint64, error) {
	if in.dir {
		return 0, fmt.Errorf("write: inode %d: %w", in.ino, ErrIsDir)
	}
	// Quiesce the fast path first: a slow-path write is newer than anything
	// staged, so the staging overlay must not outlive it.
	if _, err := fs.relinkLocked(in); err != nil {
		return 0, err
	}
	// Observability: op-level timing costs two clock reads per write; the
	// per-step breakdown (and its extra clock reads) only at the fine level.
	o := fs.obs
	fine := o != nil && o.Fine
	var start, mark time.Time
	var dAlloc, dFill, dLog, dRadix, dReclaim time.Duration
	var wsc obs.SpanContext
	if o != nil {
		wsc = o.Tracer.ChildOrRoot(sc, sc.Tenant)
		start = time.Now()
		mark = start
	}
	step := func(d *time.Duration) {
		if fine {
			now := time.Now()
			*d = now.Sub(mark)
			mark = now
		}
	}

	pg0 := off / PageSize
	pgEnd := (off + uint64(len(data)) - 1) / PageSize
	np := int64(pgEnd - pg0 + 1)

	// ① Allocate. NOVA write entries describe one contiguous block run.
	block, err := fs.alloc.Alloc(int(in.ino), np)
	if err != nil {
		return 0, err
	}
	step(&dAlloc)

	// ② Fill the pages. Fully page-aligned writes stream the caller's
	// buffer straight to the device; partial first/last pages are assembled
	// with the carried-over bytes from their current mapping (CoW).
	headPad := off % PageSize
	tailEnd := (off + uint64(len(data))) % PageSize
	if headPad == 0 && tailEnd == 0 {
		fs.Dev.WriteNT(int64(block)*PageSize, data)
	} else {
		buf := make([]byte, np*PageSize)
		if headPad != 0 || (np == 1 && tailEnd != 0) {
			fs.readPageInto(in, pg0, buf[:PageSize])
		}
		if tailEnd != 0 && np > 1 {
			fs.readPageInto(in, pgEnd, buf[(np-1)*PageSize:])
		}
		copy(buf[headPad:], data)
		fs.Dev.WriteNT(int64(block)*PageSize, buf)
	}
	step(&dFill)

	// ③ Append the write entry and commit the tail atomically.
	end := off + uint64(len(data))
	entry := WriteEntry{
		DedupeFlag: flag,
		NumPages:   uint32(np),
		PgOff:      pg0,
		Block:      block,
		EndOff:     end,
		Ino:        in.ino,
		Mtime:      fs.tick(),
		Seq:        fs.nextSeq(),
	}
	entryOff, err := fs.appendEntryLocked(in, encodeWriteEntry(entry))
	if err != nil {
		fs.alloc.Free(block, np)
		return 0, err
	}
	fs.commitTailLocked(in)
	step(&dLog)

	// ④ Radix update, ⑤ reclamation of the shadowed pages.
	fs.installRadixLocked(in, pg0, block, np, entryOff)
	step(&dRadix)
	fs.reclaimShadowedLocked(in)
	step(&dReclaim)

	if end > in.size {
		in.size = end
	}
	in.mtime = entry.Mtime
	atomic.AddInt64(&fs.writes, 1)
	if fs.onWrite != nil {
		fs.onWrite(in, entryOff, wsc)
	}
	if o != nil {
		total := time.Since(start)
		o.Write.ObserveSpan(total, wsc.Trace)
		o.WriteBytes.Add(int64(len(data)))
		o.Tracer.EmitSpan(obs.OpWrite, wsc, sc.Span, in.ino, uint64(len(data)), start, total)
		if fine {
			o.WriteAlloc.Observe(dAlloc)
			o.WriteFill.Observe(dFill)
			o.WriteLog.Observe(dLog)
			o.WriteRadix.Observe(dRadix)
			o.WriteReclaim.Observe(dReclaim)
			// Step spans are children of the write span; their start times
			// follow from the step durations (the steps run back to back).
			at := start
			emitStep := func(op obs.Op, arg uint64, d time.Duration) {
				o.Tracer.EmitSpan(op, o.Tracer.StartChild(wsc), wsc.Span, in.ino, arg, at, d)
				at = at.Add(d)
			}
			emitStep(obs.OpWriteAlloc, block, dAlloc)
			emitStep(obs.OpWriteFill, uint64(np), dFill)
			emitStep(obs.OpWriteLog, entryOff, dLog)
			emitStep(obs.OpWriteRadix, pg0, dRadix)
			emitStep(obs.OpWriteReclaim, 0, dReclaim)
		}
	}
	if in.shouldThoroughGC() {
		fs.thoroughGCLocked(in)
	}
	return entryOff, nil
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
// free pool otherwise.
func (fs *FS) reclaimShadowedLocked(in *Inode) {
	n := int64(len(in.shadow))
	atomic.AddInt64(&fs.blocksReleased, n)
	if fs.releaser == nil {
		for _, b := range in.shadow {
			fs.alloc.Free(b, 1)
		}
		atomic.AddInt64(&fs.blocksFreed, n)
	} else {
		fs.releaser.Release(in.shadow, fs.freeFn)
	}
	in.shadow = in.shadow[:0]
}

// replaceMappingLocked installs a single page mapping, dropping the live
// reference of the shadowed entry and reclaiming the shadowed block. The
// caller must already have accounted the new entry's live reference.
func (fs *FS) replaceMappingLocked(in *Inode, pg, newBlock, entryOff uint64) {
	prev, replaced := in.tree.Insert(pg, rtree.Value{Block: newBlock, Entry: entryOff})
	if !replaced {
		in.pages++
		return
	}
	fs.dropLiveLocked(in, prev.Entry, 1)
	if prev.Block != newBlock {
		in.shadow = append(in.shadow, prev.Block)
		fs.reclaimShadowedLocked(in)
	}
}

// readPageInto copies the current contents of file page pg into dst (one
// page), zero-filling when the page is unmapped. Caller holds the lock.
func (fs *FS) readPageInto(in *Inode, pg uint64, dst []byte) {
	if v, ok := in.tree.Lookup(pg); ok {
		fs.Dev.Read(int64(v.Block)*PageSize, dst[:PageSize])
		return
	}
	for i := range dst[:PageSize] {
		dst[i] = 0
	}
}

// Read copies up to len(buf) bytes starting at off into buf, returning the
// number of bytes read. Reads past the file size return n < len(buf); reads
// of holes return zeros. Concurrent readers are admitted (read lock); the
// read path touches neither FACT nor the DWQ (§V-B4). Pages staged in DRAM
// and not yet relinked overlay the radix tree, so the fast write path is
// read-your-writes without the inode write lock.
func (fs *FS) Read(in *Inode, off uint64, buf []byte) (int, error) {
	return fs.ReadCtx(in, off, buf, obs.SpanContext{})
}

// ReadCtx is Read carrying the caller's span context.
func (fs *FS) ReadCtx(in *Inode, off uint64, buf []byte, sc obs.SpanContext) (int, error) {
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
	o := fs.obs
	var start time.Time
	if o != nil {
		start = time.Now()
	}
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
			for i := read; i < read+chunk; i++ {
				buf[i] = 0
			}
		}
		read += chunk
	}
	if o != nil {
		d := time.Since(start)
		rsc := o.Tracer.ChildOrRoot(sc, sc.Tenant)
		o.Read.ObserveSpan(d, rsc.Trace)
		o.ReadBytes.Add(int64(n))
		o.Tracer.EmitSpan(obs.OpRead, rsc, sc.Span, in.ino, n, start, d)
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
