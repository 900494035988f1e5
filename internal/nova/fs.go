package nova

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"denova/internal/obs"
	"denova/internal/pmem"
)

// BlockReleaser arbitrates the reclamation of data blocks, an extent at a
// time. DeNOVA installs a releaser that consults the FACT reference count
// through the delete pointer (§IV-C): Release drops one reference from each
// block and calls free for those that may actually be freed (reference
// count reached zero or the block has no FACT entry); blocks that other
// write entries still point at are left alone.
type BlockReleaser interface {
	Release(blocks []uint64, free func(block uint64))
}

// WriteHook is invoked after a write entry has been committed, with the
// inode, the entry's device offset, and the span context of the write that
// committed it (zero when the op is untraced). DeNOVA uses it to enqueue
// the entry on the deduplication work queue; the context makes the async
// dedup work attributable to the originating request and tenant. It is
// called with the inode lock held.
type WriteHook func(ino *Inode, entryOff uint64, sc obs.SpanContext)

// FS is a mounted NOVA-like file system instance.
type FS struct {
	Dev *pmem.Device
	Geo Geometry

	alloc *Allocator

	imu     sync.RWMutex //denova:locks(nova.imu) guards inodes/inUse/inoHint; read-locked on hot lookup paths
	inodes  map[uint64]*Inode
	inUse   []bool // inode slot bitmap
	inoHint uint64 // next slot to try (keeps allocation O(1) amortized)
	root    *Inode

	releaser BlockReleaser
	freeFn   func(block uint64) // fs.freeBlock, bound once for the releaser
	reclaim  reclaimQueue       // releases deferred to the dedup daemon
	pins     freePins           // the dedup daemon's unlocked block reads
	onWrite  WriteHook
	obs      *Observer // metrics/tracing; nil = uninstrumented

	// mountWorkers is the Mount-time scan pool size (see WithMountWorkers).
	mountWorkers int

	seq   uint64 // global entry sequence
	clock uint64 // logical mtime counter

	// Stats
	writes         int64
	reads          int64
	blocksFreed    int64
	blocksReleased int64 // handed to reclaim; the ones not freed were kept by the releaser (shared)
	gcLogPages     int64
	gcThorough     int64
	stagedBytes    int64 // bytes accepted by the DRAM fast path
	relinks        int64 // batched relink commits
	relinkRuns     int64 // write entries appended by relinks
	relinkPages    int64 // pages made durable by relinks
}

// Option configures Mount.
type Option func(*FS)

// SetReleaser installs the block releaser consulted before data pages are
// reclaimed (the dedup engine is built on top of a mounted FS, so it is
// installed after construction).
func (fs *FS) SetReleaser(r BlockReleaser) { fs.releaser, fs.freeFn = r, fs.freeBlock }

// SetWriteHook installs the post-commit write hook after construction.
func (fs *FS) SetWriteHook(h WriteHook) { fs.onWrite = h }

// Mkfs formats the device with the given maximum inode count and returns a
// mounted file system. Previous contents are ignored; the regions holding
// persistent metadata are zeroed.
func Mkfs(dev *pmem.Device, maxInodes int64) (*FS, error) {
	g, err := ComputeGeometry(dev.Size(), maxInodes)
	if err != nil {
		return nil, err
	}
	// Zero the metadata regions (inode table, FACT, DWQ save) so a reused
	// device cannot leak stale records. Data pages need no zeroing: log
	// entries beyond the tail are never read and data pages are fully
	// written before being referenced.
	zeroRegion(dev, g.InodeTableOff, g.InodeTablePages*PageSize)
	zeroRegion(dev, g.FactOff, g.FactPages*PageSize)
	zeroRegion(dev, g.DWQSaveOff, g.DWQSavePages*PageSize)
	writeSuperblock(dev, g, 1)
	setCleanFlag(dev, false)

	fs := &FS{
		Dev:    dev,
		Geo:    g,
		alloc:  NewAllocator(g.DataStartBlock, g.NumDataBlocks, allocShards()),
		inodes: make(map[uint64]*Inode),
		inUse:  make([]bool, maxInodes),
	}
	fs.inUse[0] = true // ino 0 is never used
	// Create the root directory.
	root, err := fs.newInode(RootIno, true)
	if err != nil {
		return nil, err
	}
	fs.root = root
	return fs, nil
}

func zeroRegion(dev *pmem.Device, off, n int64) {
	zeros := make([]byte, PageSize)
	for p := int64(0); p < n; p += PageSize {
		m := n - p
		if m > PageSize {
			m = PageSize
		}
		dev.WriteNT(off+p, zeros[:m])
	}
}

func allocShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	return n
}

// newInode allocates and persists inode ino (slot must be reserved by the
// caller or unused), creating its first log page.
func (fs *FS) newInode(ino uint64, dir bool) (*Inode, error) {
	logPage, err := fs.allocBlocks(ino, 1)
	if err != nil {
		return nil, err
	}
	fs.initLogPage(logPage, 0)
	now := fs.tick()
	prev, _ := fs.readInode(ino) // best effort: keep generation monotonic
	di := diskInode{
		Valid:   true,
		Dir:     dir,
		Ino:     ino,
		LogHead: logPage,
		LogTail: logPage * PageSize,
		Ctime:   now,
		Mtime:   now,
		Gen:     prev.Gen + 1,
	}
	fs.writeInode(di)
	in := &Inode{
		ino:      ino,
		dir:      dir,
		gen:      di.Gen,
		ctime:    now,
		mtime:    now,
		logHead:  logPage,
		logTail:  logPage * PageSize,
		logPages: []uint64{logPage},
		live:     map[uint64]int{logPage: 0},
	}
	if dir {
		in.names = make(map[string]uint64)
	} else {
		in.stage = newStageBuf()
	}
	fs.imu.Lock()
	fs.inodes[ino] = in
	fs.inUse[ino] = true
	fs.imu.Unlock()
	return in, nil
}

// allocInodeSlot reserves a free inode number, scanning from a rotating
// hint so allocation is O(1) amortized rather than O(max inodes) per call.
func (fs *FS) allocInodeSlot() (uint64, error) {
	fs.imu.Lock()
	defer fs.imu.Unlock()
	n := uint64(len(fs.inUse))
	if fs.inoHint <= RootIno || fs.inoHint >= n {
		fs.inoHint = RootIno + 1
	}
	for scanned := uint64(0); scanned < n; scanned++ {
		i := fs.inoHint
		fs.inoHint++
		if fs.inoHint >= n {
			fs.inoHint = RootIno + 1
		}
		if i > RootIno && !fs.inUse[i] {
			fs.inUse[i] = true
			return i, nil
		}
	}
	return 0, fmt.Errorf("out of inodes (max %d): %w", len(fs.inUse), ErrNoSpace)
}

func (fs *FS) releaseInodeSlot(ino uint64) {
	fs.imu.Lock()
	fs.inUse[ino] = false
	delete(fs.inodes, ino)
	fs.imu.Unlock()
}

// Inode returns the DRAM inode for ino.
func (fs *FS) Inode(ino uint64) (*Inode, bool) {
	fs.imu.RLock()
	in, ok := fs.inodes[ino]
	fs.imu.RUnlock()
	return in, ok
}

// Root returns the root directory inode.
func (fs *FS) Root() *Inode { return fs.root }

// tick advances the logical clock used for mtimes.
func (fs *FS) tick() uint64 { return atomic.AddUint64(&fs.clock, 1) }

func (fs *FS) nextSeq() uint64 { return atomic.AddUint64(&fs.seq, 1) }

// FreeBlocks reports the allocator's free block count.
func (fs *FS) FreeBlocks() int64 { return fs.alloc.FreeBlocks() }

// Allocator exposes the block allocator (recovery and the FACT scrubber
// need it).
func (fs *FS) Allocator() *Allocator { return fs.alloc }

// freeBlock is the releaser's free callback: one released data block goes
// back to the free pool, or to limbo while a free-pin is held.
func (fs *FS) freeBlock(block uint64) {
	if !fs.pins.park(block) {
		fs.freeNow(block)
	}
}

// freeNow returns data block block to the free pool.
func (fs *FS) freeNow(block uint64) {
	fs.alloc.Free(block, 1)
	atomic.AddInt64(&fs.blocksFreed, 1)
}

// Stats is a snapshot of file-system level counters.
type Stats struct {
	Writes        int64
	Reads         int64
	BlocksFreed   int64
	BlocksSkipped int64 // reclaim attempts on still-referenced (shared) blocks
	GCLogPages    int64
	GCThorough    int64 // thorough (copying) GC passes
	StagedBytes   int64 // bytes accepted by the DRAM staging fast path
	Relinks       int64 // batched relink commits
	RelinkRuns    int64 // write entries appended by relink commits
	RelinkPages   int64 // data pages made durable by relink commits
	FreeBlocks    int64
	TotalBlocks   int64
	Reclaim       ReclaimStats
}

// Stats returns a snapshot of the counters.
func (fs *FS) Stats() Stats {
	// Freed before released: a batch is counted released before any of it
	// is freed, so this order keeps the difference non-negative.
	freed := atomic.LoadInt64(&fs.blocksFreed)
	return Stats{
		Writes:        atomic.LoadInt64(&fs.writes),
		Reads:         atomic.LoadInt64(&fs.reads),
		BlocksFreed:   freed,
		BlocksSkipped: atomic.LoadInt64(&fs.blocksReleased) - freed,
		GCLogPages:    atomic.LoadInt64(&fs.gcLogPages),
		GCThorough:    atomic.LoadInt64(&fs.gcThorough),
		StagedBytes:   atomic.LoadInt64(&fs.stagedBytes),
		Relinks:       atomic.LoadInt64(&fs.relinks),
		RelinkRuns:    atomic.LoadInt64(&fs.relinkRuns),
		RelinkPages:   atomic.LoadInt64(&fs.relinkPages),
		FreeBlocks:    fs.alloc.FreeBlocks(),
		TotalBlocks:   fs.Geo.NumDataBlocks,
		Reclaim:       fs.ReclaimStats(),
	}
}

// Unmount relinks any staged data, drains the reclaim queue, persists DRAM
// inode state (sizes, tails) and marks the superblock clean. The FS must
// not be used afterwards.
func (fs *FS) Unmount() error {
	fs.DrainReclaim()
	fs.imu.RLock()
	inos := make([]*Inode, 0, len(fs.inodes))
	for _, in := range fs.inodes {
		inos = append(inos, in)
	}
	fs.imu.RUnlock()
	var firstErr error
	for _, in := range inos {
		err := func() error {
			in.mu.Lock()
			defer in.mu.Unlock()
			_, rerr := fs.relinkLocked(in)
			fs.updateInodeSummary(in)
			return rerr
		}()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		// Staged data could not be made durable: leave the dirty flag so
		// recovery treats the image as a crash (everything committed is
		// still consistent; only the undrainable staged bytes are lost).
		return firstErr
	}
	setCleanFlag(fs.Dev, true)
	return nil
}
