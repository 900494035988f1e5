package nova

import (
	"fmt"
	"sync"

	"denova/internal/layout"
	"denova/internal/pmem"
	"denova/internal/rtree"
)

// On-PM inode field offsets within the 128 B record.
const (
	inFlags   = 0  // u64: bit0 valid, bit1 dir
	inIno     = 8  // u64
	inSize    = 16 // u64 (persisted at clean unmount; recomputed by recovery)
	inLogHead = 24 // u64 block number of first log page (0 = none)
	inLogTail = 32 // u64 device byte offset of the next free entry slot
	inPages   = 40 // u64 data pages referenced (informational)
	inCtime   = 48 // u64
	inMtime   = 56 // u64
	inGen     = 64 // u64 incremented on each reuse of the slot
	inCsum    = 72 // u32 over bytes [0,72) with the mutable log fields zeroed

	inodeFlagValid = 1 << 0
	inodeFlagDir   = 1 << 1
)

// inodeOff returns the device byte offset of inode ino's record.
func (fs *FS) inodeOff(ino uint64) int64 {
	return fs.Geo.InodeTableOff + int64(ino)*InodeSize
}

// diskInode is the decoded persistent inode.
type diskInode struct {
	Valid   bool
	Dir     bool
	Ino     uint64
	Size    uint64
	LogHead uint64
	LogTail uint64
	Pages   uint64
	Ctime   uint64
	Mtime   uint64
	Gen     uint64
}

func (fs *FS) readInode(ino uint64) (diskInode, error) {
	rec := make(layout.Record, InodeSize)
	fs.Dev.Read(fs.inodeOff(ino), rec)
	flags := rec.U64(inFlags)
	if flags&inodeFlagValid == 0 {
		return diskInode{}, nil
	}
	if got, want := rec.U32(inCsum), inodeChecksum(rec); got != want {
		return diskInode{}, fmt.Errorf("nova: inode %d checksum mismatch", ino)
	}
	if rec.U64(inIno) != ino {
		return diskInode{}, fmt.Errorf("nova: inode %d record claims ino %d", ino, rec.U64(inIno))
	}
	return diskInode{
		Valid:   true,
		Dir:     flags&inodeFlagDir != 0,
		Ino:     rec.U64(inIno),
		Size:    rec.U64(inSize),
		LogHead: rec.U64(inLogHead),
		LogTail: rec.U64(inLogTail),
		Pages:   rec.U64(inPages),
		Ctime:   rec.U64(inCtime),
		Mtime:   rec.U64(inMtime),
		Gen:     rec.U64(inGen),
	}, nil
}

// writeInode persists a new inode record. Because the 128 B record spans
// two cache lines, a wholesale rewrite can tear across a crash; the record
// is therefore written with its valid bit clear, persisted, and only then
// validated with a single atomic 64-bit store — the commit point. Mutable
// fields (log head/tail, size, pages, mtime) are subsequently updated only
// through individual atomic stores and are excluded from the checksum.
func (fs *FS) writeInode(di diskInode) {
	rec := make(layout.Record, InodeSize)
	var flags uint64
	if di.Valid {
		flags |= inodeFlagValid
	}
	if di.Dir {
		flags |= inodeFlagDir
	}
	rec.PutU64(inFlags, 0) // committed last, atomically
	rec.PutU64(inIno, di.Ino)
	rec.PutU64(inSize, di.Size)
	rec.PutU64(inLogHead, di.LogHead)
	rec.PutU64(inLogTail, di.LogTail)
	rec.PutU64(inPages, di.Pages)
	rec.PutU64(inCtime, di.Ctime)
	rec.PutU64(inMtime, di.Mtime)
	rec.PutU64(inGen, di.Gen)
	rec.PutU32(inCsum, inodeChecksum(rec))
	off := fs.inodeOff(di.Ino)
	fs.Dev.Write(off, rec)
	fs.Dev.Persist(off, InodeSize)
	fs.Dev.PersistStore64(off+inFlags, flags)
}

// updateInodeSummary refreshes the mutable advisory fields of an already
// valid inode (clean unmount). Each store is an atomic 8-byte persist, so
// no torn record is possible and the checksum (which masks these fields)
// stays valid. All mutable fields sit in the record's first cache line
// (offsets 16..56), so only that line is flushed — persisting the full
// 128 B record would flush the untouched second line for nothing.
func (fs *FS) updateInodeSummary(in *Inode) {
	off := fs.inodeOff(in.ino)
	fs.Dev.Store64(off+inSize, in.size)
	fs.Dev.Store64(off+inPages, in.pages)
	fs.Dev.Store64(off+inMtime, in.mtime)
	fs.Dev.Store64(off+inLogHead, in.logHead)
	fs.Dev.Store64(off+inLogTail, in.logTail)
	fs.Dev.Persist(off, pmem.CacheLineSize)
}

// inodeChecksum covers only the fields that are immutable after creation
// (ino, ctime, gen). The flags word is the atomic validity commit; the log
// head/tail and summary fields are updated in place by atomic 64-bit
// stores during operation and are self-consistent without a checksum.
func inodeChecksum(rec layout.Record) uint32 {
	cp := make(layout.Record, inCsum)
	copy(cp, rec[:inCsum])
	cp.PutU64(inFlags, 0)
	cp.PutU64(inSize, 0)
	cp.PutU64(inLogHead, 0)
	cp.PutU64(inLogTail, 0)
	cp.PutU64(inPages, 0)
	cp.PutU64(inMtime, 0)
	return layout.Checksum(cp)
}

// Inode is the DRAM state of an open inode: the radix tree index, the log
// page list, and per-log-page live entry counts used by fast GC. It is
// protected by its RWMutex; NOVA's write path and DeNOVA's deduplication
// daemon both take the write lock, readers take the read lock.
type Inode struct {
	mu  sync.RWMutex //denova:locks(nova.inode)
	ino uint64
	dir bool
	gen uint64

	size  uint64
	ctime uint64
	mtime uint64

	logHead uint64 // block of first log page
	logTail uint64 // device byte offset of next free slot (committed)
	pending uint64 // next free slot past uncommitted appends (0 = none)

	tree     rtree.Tree     // file page offset -> {block, entryOff}
	treeGen  uint64         // bumped by every change to tree; see TreeGenLocked
	logPages []uint64       // ordered log page blocks
	live     map[uint64]int // log page block -> live references
	pages    uint64         // data pages currently referenced
	shadow   []uint64       // reclaim scratch: blocks whose mappings just went away, released as one batch (empty between uses)

	stage *stageBuf // files only: DRAM staging for the split write path

	names map[string]uint64 // directories only: name -> ino
}

// Ino returns the inode number.
func (ino *Inode) Ino() uint64 { return ino.ino }

// Size returns the current file size, including bytes staged in DRAM and
// not yet relinked. Callers that need a stable value must hold the inode
// lock.
func (ino *Inode) Size() uint64 {
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	sz := ino.size
	if st := ino.stage; st != nil {
		st.mu.RLock()
		sz = st.effectiveSize(sz)
		st.mu.RUnlock()
	}
	return sz
}

// Lock acquires the inode's write lock (exposed for the dedup daemon). The
// daemon holds it for a transaction's revalidation, FACT transactions and
// remap (§IV-E), but drops it while it fingerprints the node's pages: it
// reads them behind a free-pin (FS.PinFrees) and, back under the lock,
// keeps only the pages TreeGenLocked says cannot have moved.
func (ino *Inode) Lock() { ino.mu.Lock() }

// Unlock releases the write lock.
func (ino *Inode) Unlock() { ino.mu.Unlock() }

// Mapping returns the current radix mapping of a file page.
func (ino *Inode) Mapping(pg uint64) (block, entryOff uint64, ok bool) {
	v, ok := ino.tree.Lookup(pg)
	return v.Block, v.Entry, ok
}

// TreeGenLocked returns the radix tree's mutation counter: equal values
// under the inode lock mean no page mapping changed in between. The caller
// holds the inode lock.
func (ino *Inode) TreeGenLocked() uint64 { return ino.treeGen }

// OwnsEntry reports whether the entry at device offset off lies inside one
// of the inode's current log pages. The inode lock must be held. The dedup
// daemon checks this before reading a queued entry: once a page has been
// reclaimed (delete, fast GC, log compaction), the allocator may hand it to
// another inode, and a raw read of it would race with that inode's appends.
func (ino *Inode) OwnsEntry(off uint64) bool {
	_, ok := ino.live[pageOfOff(off)]
	return ok
}

// PageCount reports how many data pages the file currently references.
func (ino *Inode) PageCount() uint64 { return ino.pages }

// Times returns the logical creation and modification timestamps (ticks of
// the file system's logical clock; monotone across operations and
// recovered from the log on mount).
func (ino *Inode) Times() (ctime, mtime uint64) {
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	return ino.ctime, ino.mtime
}

// IsDir reports whether the inode is a directory.
func (ino *Inode) IsDir() bool { return ino.dir }

// LogPageCount reports the length of the inode's log page chain.
func (ino *Inode) LogPageCount() int { return len(ino.logPages) }
