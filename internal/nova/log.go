package nova

import (
	"fmt"
	"sync/atomic"

	"denova/internal/layout"
)

// Per-inode logs are linked lists of 4 KB log pages. Each page holds 63
// 64-byte entry slots; the 64th slot is the page tail carrying the link to
// the next page. The inode's persistent logTail field points at the next
// free entry slot; entries at or beyond the tail are invisible, which is
// what makes the 8-byte tail store the commit point of every transaction
// (§II-A "File System Consistency").

const logTailSlotOff = EntriesPerLogPage * EntrySize // byte 4032 within the page

// initLogPage persists a fresh page tail (next = next, magic) for block.
func (fs *FS) initLogPage(block, next uint64) {
	off := int64(block)*PageSize + logTailSlotOff
	rec := make(layout.Record, EntrySize)
	rec.PutU64(0, next)
	rec.PutU64(8, logPageMagic)
	fs.Dev.Write(off, rec)
	fs.Dev.Persist(off, EntrySize)
}

// logPageNext reads the next-page link of a log page.
func (fs *FS) logPageNext(block uint64) (uint64, error) {
	off := int64(block)*PageSize + logTailSlotOff
	rec := make(layout.Record, EntrySize)
	fs.Dev.Read(off, rec)
	if rec.U64(8) != logPageMagic {
		return 0, fmt.Errorf("nova: block %d is not a log page", block)
	}
	return rec.U64(0), nil
}

// setLogPageNext updates and persists the next link of a log page.
func (fs *FS) setLogPageNext(block, next uint64) {
	fs.Dev.PersistStore64(int64(block)*PageSize+logTailSlotOff, next)
}

// slotIndex returns the entry slot index of a device byte offset within its
// log page.
func slotIndex(off uint64) int { return int(off%PageSize) / EntrySize }

// Every log transaction is reserve → append… → commit (Fig. 1 ③, reused by
// Fig. 6 ④–⑤). reserve is the only step that can fail and the only code
// that grows a log chain; append stores and flushes one record past the
// tail, where it stays invisible; commit orders the batch with one fence
// and publishes it with the atomic 8-byte tail store. The inode lock must
// be held throughout.

// reserve makes room for n appends: it links spare pages after the tail
// page until n slots are free. The spares are persisted at once, but the
// commit point stays the inode tail, so a crash (or a caller that gives up
// before appending) leaves at worst empty pages past the tail, which
// recovery's end-of-mount fast-GC sweep reclaims. Reserving a whole
// transaction up front is what makes it all-or-nothing under ENOSPC.
func (fs *FS) reserve(in *Inode, n int) error {
	tail := in.pendingTail()
	free := EntriesPerLogPage - slotIndex(tail)
	if free >= n {
		return nil
	}
	idx := in.logPageIndex(pageOfOff(tail))
	if idx < 0 {
		panic(fmt.Sprintf("nova: inode %d tail page missing from page list", in.ino))
	}
	free += (len(in.logPages) - idx - 1) * EntriesPerLogPage
	for ; free < n; free += EntriesPerLogPage {
		np, err := fs.alloc.Alloc(int(in.ino), 1)
		if err != nil {
			return err
		}
		fs.initLogPage(np, 0)
		fs.setLogPageNext(in.logPages[len(in.logPages)-1], np)
		in.logPages = append(in.logPages, np)
		in.live[np] = 0
	}
	return nil
}

// append writes rec into a reserved slot at the pending tail and flushes it
// — unfenced, uncommitted — returning the record's device offset.
func (fs *FS) append(in *Inode, rec layout.Record) uint64 {
	if len(rec) != EntrySize {
		panic("nova: log entry must be exactly 64 bytes")
	}
	tail := in.pendingTail()
	if slotIndex(tail) == EntriesPerLogPage {
		// The tail page is full: step into the spare reserve linked after it.
		idx := in.logPageIndex(pageOfOff(tail))
		if idx < 0 || idx+1 == len(in.logPages) {
			panic(fmt.Sprintf("nova: inode %d: log append without a reserved slot", in.ino))
		}
		tail = in.logPages[idx+1] * PageSize
	}
	fs.Dev.Write(int64(tail), rec)
	fs.Dev.Flush(int64(tail), EntrySize)
	in.pending = tail + EntrySize
	return tail
}

// commit publishes every record appended since the last commit: one fence
// orders their flushes, then the tail moves with a single persistent 64-bit
// store. With nothing appended it is a no-op.
func (fs *FS) commit(in *Inode) {
	if in.pending == 0 || in.pending == in.logTail {
		return
	}
	fs.Dev.Fence()
	fs.Dev.PersistStore64(fs.inodeOff(in.ino)+inLogTail, in.pending)
	in.logTail = in.pending
	in.pending = 0
}

// logDentryLocked logs d in directory dir as a transaction of its own:
// reserve one slot, append, commit.
func (fs *FS) logDentryLocked(dir *Inode, d Dentry) error {
	rec, err := encodeDentry(d)
	if err == nil {
		err = fs.reserve(dir, 1)
	}
	if err != nil {
		return err
	}
	fs.append(dir, rec)
	fs.commit(dir)
	return nil
}

// logPageIndex returns pg's position in the inode's page list, or -1.
func (in *Inode) logPageIndex(pg uint64) int {
	for i, b := range in.logPages {
		if b == pg {
			return i
		}
	}
	return -1
}

// pendingTail returns where the next entry will be appended: the committed
// tail, or past any uncommitted entries appended since.
func (in *Inode) pendingTail() uint64 {
	if in.pending != 0 {
		return in.pending
	}
	return in.logTail
}

// walkLog iterates the committed entries of an inode's log in append order,
// calling fn with each entry's device offset and raw record. Stops early if
// fn returns false.
func (fs *FS) walkLog(head, tail uint64, fn func(off uint64, rec layout.Record) bool) error {
	page := head
	for page != 0 {
		base := page * PageSize
		for s := 0; s < EntriesPerLogPage; s++ {
			off := base + uint64(s*EntrySize)
			if off == tail {
				return nil
			}
			rec := make(layout.Record, EntrySize)
			fs.Dev.Read(int64(off), rec)
			if !fn(off, rec) {
				return nil
			}
		}
		if pageOfOff(tail) == page {
			// The committed tail sits at this page's boundary slot: the page
			// filled up but no entry in a later page was ever committed. A
			// crash can leave a successor page linked whose slots still hold
			// garbage from the block's previous life — never read past the
			// tail's page.
			return nil
		}
		next, err := fs.logPageNext(page)
		if err != nil {
			return err
		}
		page = next
	}
	return nil
}

// pageOfOff returns the block number containing a device byte offset.
func pageOfOff(off uint64) uint64 { return off / PageSize }

// addLiveLocked increments the live-reference count of the log page holding
// entryOff.
func (in *Inode) addLiveLocked(entryOff uint64, n int) {
	in.live[pageOfOff(entryOff)] += n
}

// dropLiveLocked decrements the live count of entryOff's page and triggers
// fast GC when the page dies. Returns true if the page was reclaimed.
func (fs *FS) dropLiveLocked(in *Inode, entryOff uint64, n int) bool {
	pg := pageOfOff(entryOff)
	in.live[pg] -= n
	if in.live[pg] < 0 {
		panic(fmt.Sprintf("nova: live count of log page %d went negative", pg))
	}
	return fs.fastGCLocked(in, pg)
}

// fastGCLocked implements NOVA's fast garbage collection: a log page whose
// entries are all dead is unlinked from the chain and freed without moving
// any data (§II-A: "an invalid log page can be reclaimed without
// interfering with other processes"). Directory logs are exempt: dentry
// liveness cannot be decided per page without replay ordering.
func (fs *FS) fastGCLocked(in *Inode, pg uint64) bool {
	if in.dir {
		return false
	}
	if in.live[pg] != 0 {
		return false
	}
	// Never reclaim the page holding the (pending) tail: future appends land
	// there. Head pages are reclaimable by advancing the inode's logHead.
	if pageOfOff(in.pendingTail()) == pg {
		return false
	}
	idx := in.logPageIndex(pg)
	if idx < 0 {
		panic(fmt.Sprintf("nova: GC of unknown log page %d", pg))
	}
	next, err := fs.logPageNext(pg)
	if err != nil {
		panic(err)
	}
	if idx == 0 {
		// Head page: move the persistent log head forward atomically.
		fs.Dev.PersistStore64(fs.inodeOff(in.ino)+inLogHead, next)
		in.logHead = next
	} else {
		prev := in.logPages[idx-1]
		fs.setLogPageNext(prev, next)
	}
	in.logPages = append(in.logPages[:idx], in.logPages[idx+1:]...)
	delete(in.live, pg)
	fs.alloc.Free(pg, 1)
	atomic.AddInt64(&fs.gcLogPages, 1)
	return true
}
