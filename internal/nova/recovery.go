package nova

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"denova/internal/layout"
	"denova/internal/par"
	"denova/internal/pmem"
	"denova/internal/rtree"
)

// EntryRef identifies a committed write entry for deduplication purposes.
type EntryRef struct {
	Ino uint64
	Off uint64 // device byte offset of the entry
	Seq uint64 // global append sequence (restores DWQ FIFO order)
}

// RecoveryPass records the cost of one recovery pass: its wall-clock time
// and the device access counters it consumed. The dedup layer appends its
// own phases to the same list, so a full mount reads as one timeline.
type RecoveryPass struct {
	Name string
	Wall time.Duration
	Pmem pmem.Stats // device counter delta over the pass
}

// ScanResult is everything the mount-time log scan learns that the
// deduplication layer needs (§V-C): the entries still awaiting
// deduplication, the entries caught mid-transaction, and the block usage
// bitmap FACT recovery scrubs against.
type ScanResult struct {
	// Clean is the pre-mount state of the superblock clean flag.
	Clean bool
	// DWQOverflow indicates the clean-unmount DWQ snapshot was truncated,
	// so the dedupe-flag scan must be used even after a clean mount.
	DWQOverflow bool
	// NeedDedup lists write entries with dedupe-flag "dedupe_needed" in
	// global append order (Inconsistency Handling I).
	NeedDedup []EntryRef
	// InProcess lists write entries with dedupe-flag "in_process", i.e.
	// deduplication transactions whose log commit happened but whose FACT
	// bookkeeping may be unfinished (Inconsistency Handling II/III).
	InProcess []EntryRef
	// UsedBlocks[i] reports whether block Geo.DataStartBlock+i is occupied
	// (log page of a live inode, or data page reachable from a radix tree)
	// as of the scan — before the end-of-mount log GC releases dead pages.
	UsedBlocks []bool
	// Orphans lists inode numbers that were valid on PM but unreachable
	// from the namespace (interrupted create or delete), in ascending
	// order; they have already been reclaimed by the time Mount returns.
	Orphans []uint64
	// RepairsPersisted counts dangling-dentry prunings committed to the
	// parent directory's log during Pass 6. A second mount of the same
	// image reports zero: the repair is durable, not volatile-only.
	RepairsPersisted int
	// DentryCorrupt counts structurally invalid records found inside the
	// committed range of a directory log. They are skipped (the name is
	// lost) but surfaced here, unlike the benign zeroed-slot padding.
	DentryCorrupt int
	// GCPages counts file log pages reclaimed by the end-of-mount fast-GC
	// sweep: pages whose entries were all dead at scan time (typically an
	// interrupted runtime GC) that no future operation would ever revisit.
	GCPages int
	// Passes is the per-pass timing/access breakdown of the mount.
	Passes []RecoveryPass
}

// timedPass runs fn and appends its wall-clock and device-counter cost to
// res.Passes.
func (fs *FS) timedPass(res *ScanResult, name string, fn func() error) error {
	start := time.Now()
	before := fs.Dev.Stats()
	err := fn()
	res.Passes = append(res.Passes, RecoveryPass{
		Name: name,
		Wall: time.Since(start),
		Pmem: fs.Dev.Stats().Sub(before),
	})
	return err
}

// WithMountWorkers sets the worker-pool size for the parallel mount passes
// (inode-table scan and per-file log replay); n <= 0 counts as 1. One
// worker runs the exact sequential scan; any worker count produces the
// same ScanResult and the same persistent image, because the parallel
// passes are read-only and their fragments merge deterministically.
func WithMountWorkers(n int) Option { return func(fs *FS) { fs.mountWorkers = n } }

// Mount opens a previously formatted device, rebuilding all DRAM state
// (radix trees, namespace, free lists, live-entry counts) by scanning the
// per-inode logs, exactly as NOVA recovery does. It works identically for
// clean and unclean shutdowns; the returned ScanResult tells the caller
// which dedup recovery steps still apply.
//
// The inode-table scan (Pass 1) and the per-file log replay (Pass 4/5) are
// sharded across WithMountWorkers goroutines; per-worker fragments
// (NeedDedup/InProcess lists, usage bitmaps, seq/clock maxima) merge
// deterministically, so the worker count never changes the result. The
// namespace BFS, the dangling-dentry repairs, and the log-GC sweep stay
// single-threaded: they mutate shared or persistent state and are cheap.
func Mount(dev *pmem.Device, opts ...Option) (*FS, *ScanResult, error) {
	g, _, err := readSuperblock(dev)
	if err != nil {
		return nil, nil, err
	}
	res := &ScanResult{
		Clean:       CleanFlag(dev),
		DWQOverflow: DWQOverflowFlag(dev),
		UsedBlocks:  make([]bool, g.NumDataBlocks),
	}
	setCleanFlag(dev, false) // we are live now

	fs := &FS{
		Dev:    dev,
		Geo:    g,
		inodes: make(map[uint64]*Inode),
		inUse:  make([]bool, g.MaxInodes),
	}
	for _, o := range opts {
		o(fs)
	}
	fs.inUse[0] = true
	workers := max(fs.mountWorkers, 1)

	// Pass 1: load every valid inode record, sharded by inode range.
	var files []*Inode
	err = fs.timedPass(res, "inode-scan", func() error {
		var perr error
		files, perr = fs.scanInodeTable(workers)
		return perr
	})
	if err != nil {
		return nil, nil, err
	}
	if fs.root == nil {
		return nil, nil, fmt.Errorf("nova: no root directory; device not formatted?")
	}

	// Pass 2+3: BFS from the root through the directory tree, replaying
	// each directory's dentry log at visit time, collecting (a) the set of
	// reachable inodes and (b) dangling dentries (names whose inode record
	// is gone — a crash mid-delete); unreachable inodes are orphans (a
	// crash between inode creation and dentry commit, or mid-teardown).
	type repair struct {
		dir  *Inode
		name string
		ino  uint64
	}
	var repairs []repair
	err = fs.timedPass(res, "namespace", func() error {
		reachable := map[uint64]bool{RootIno: true}
		queue := []*Inode{fs.root}
		for len(queue) > 0 {
			dir := queue[0]
			queue = queue[1:]
			if err := fs.replayDir(dir, res); err != nil {
				return err
			}
			// Visit names in sorted order so the repair list (and thus the
			// Pass 6 log appends) is deterministic.
			names := make([]string, 0, len(dir.names))
			for name := range dir.names {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				ino := dir.names[name]
				child, ok := fs.inodes[ino]
				if !ok || reachable[ino] {
					// Dangling (inode gone) or duplicate reference (corrupt):
					// prune the dentry; the log repair runs after the
					// allocator is rebuilt.
					delete(dir.names, name)
					repairs = append(repairs, repair{dir, name, ino})
					continue
				}
				reachable[ino] = true
				if child.dir {
					queue = append(queue, child)
				}
			}
		}
		kept := files[:0]
		for _, in := range files {
			if reachable[in.ino] {
				kept = append(kept, in)
			}
		}
		files = kept
		// Reclaim orphans in ascending inode order (deterministic PM write
		// order and Orphans listing).
		for ino := uint64(1); ino < uint64(len(fs.inUse)); ino++ {
			in, ok := fs.inodes[ino]
			if !ok || reachable[ino] {
				continue
			}
			res.Orphans = append(res.Orphans, ino)
			fs.Dev.PersistStore64(fs.inodeOff(in.ino)+inFlags, 0)
			delete(fs.inodes, ino)
			fs.inUse[ino] = false
			// Pages of orphans are simply not marked used; the rebuilt free
			// list reclaims them, finishing the interrupted create/delete.
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Pass 4+5 (files): replay each file log — rebuild radix trees, live
	// counts, sizes, collect dedupe-flagged entries — and mark the blocks
	// it reaches (log chain + data pages), sharded across the worker pool.
	// Each worker owns a ScanResult fragment and a private usage bitmap;
	// the merge below ORs the bitmaps, concatenates the entry lists (the
	// final sort by Seq restores global order) and takes the seq/clock
	// maxima, so the result is independent of scheduling.
	err = fs.timedPass(res, "log-replay", func() error {
		return fs.replayFilesParallel(files, res, workers)
	})
	if err != nil {
		return nil, nil, err
	}

	// Pass 5 (directories + allocator): directory logs were replayed during
	// the BFS; mark their pages, then rebuild the allocator from the merged
	// bitmap.
	err = fs.timedPass(res, "alloc-rebuild", func() error {
		for _, in := range fs.inodes {
			if !in.dir {
				continue
			}
			for _, lp := range in.logPages {
				if err := markUsed(res.UsedBlocks, g.DataStartBlock, lp); err != nil {
					return fmt.Errorf("nova: inode %d: %w", in.ino, err)
				}
			}
		}
		fs.alloc = NewAllocatorFromBitmap(g.DataStartBlock, g.NumDataBlocks, allocShards(), res.UsedBlocks)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Pass 6: persist the dangling-dentry pruning (needs the allocator in
	// case a repair grows the directory log). A failed repair fails the
	// mount: leaving the prune volatile-only would resurrect the dangling
	// name on the next crash.
	err = fs.timedPass(res, "repairs", func() error {
		for _, r := range repairs {
			err := func() error {
				r.dir.mu.Lock()
				defer r.dir.mu.Unlock()
				// The name left the DRAM map in the namespace pass.
				return fs.removeDentryLocked(r.dir, r.name, r.ino)
			}()
			if err != nil {
				return fmt.Errorf("nova: persisting dangling-dentry repair %q in dir %d: %w", r.name, r.dir.ino, err)
			}
			res.RepairsPersisted++
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Pass 7: finish interrupted fast GC. A file log page whose entries
	// are all dead at scan time (a crash between the tail commit that
	// killed its last entry and the GC unlink, or a truncate replay that
	// drained it) is never revisited by runtime fast GC — nothing will
	// ever drop its live count again — so it would leak until a thorough
	// GC rewrite. Reclaim such pages now, in ascending inode order.
	_ = fs.timedPass(res, "log-gc", func() error {
		for _, in := range files {
			func() {
				in.mu.Lock()
				defer in.mu.Unlock()
				pages := append([]uint64(nil), in.logPages...)
				for _, pg := range pages {
					if in.live[pg] == 0 && fs.fastGCLocked(in, pg) {
						res.GCPages++
					}
				}
			}()
		}
		return nil
	})

	sort.Slice(res.NeedDedup, func(i, j int) bool { return res.NeedDedup[i].Seq < res.NeedDedup[j].Seq })
	sort.Slice(res.InProcess, func(i, j int) bool { return res.InProcess[i].Seq < res.InProcess[j].Seq })
	return fs, res, nil
}

// scanInodeTable is Pass 1: it loads every valid inode record, sharding
// the table across workers. Each worker appends to a private slice; the
// merge walks the shards in range order, so the inode map, the files list
// and the root detection behave exactly as the sequential ascending scan.
func (fs *FS) scanInodeTable(workers int) ([]*Inode, error) {
	shardInodes := make([][]*Inode, workers)
	shardErrs := make([]error, len(shardInodes))
	par.Ranges(1, fs.Geo.MaxInodes, workers, func(w int, lo, hi int64) {
		for ino := uint64(lo); ino < uint64(hi); ino++ {
			di, err := fs.readInode(ino)
			if err != nil {
				shardErrs[w] = err
				return
			}
			if !di.Valid {
				continue
			}
			in := &Inode{
				ino:     ino,
				dir:     di.Dir,
				gen:     di.Gen,
				ctime:   di.Ctime,
				logHead: di.LogHead,
				logTail: di.LogTail,
				live:    make(map[uint64]int),
			}
			if di.Dir {
				in.names = make(map[string]uint64)
			} else {
				in.stage = newStageBuf()
			}
			shardInodes[w] = append(shardInodes[w], in)
		}
	})
	for _, err := range shardErrs {
		if err != nil {
			return nil, err // first error in ascending-inode order
		}
	}
	var files []*Inode
	for _, shard := range shardInodes {
		for _, in := range shard {
			fs.inodes[in.ino] = in
			fs.inUse[in.ino] = true
			if in.ino == RootIno {
				if !in.dir {
					return nil, fmt.Errorf("nova: root inode is not a directory")
				}
				fs.root = in
			} else if !in.dir {
				files = append(files, in)
			}
		}
	}
	return files, nil
}

// replayFilesParallel is Pass 4+5 for files: shard the file list into
// contiguous chunks, replay each file's log and mark its blocks into a
// per-worker fragment, then merge the fragments into res.
func (fs *FS) replayFilesParallel(files []*Inode, res *ScanResult, workers int) error {
	type fragment struct {
		scan            ScanResult
		used            []bool
		maxSeq, maxTime uint64
		err             error
		errFile         int
	}
	frags := make([]fragment, workers)
	par.Ranges(0, int64(len(files)), workers, func(w int, lo, hi int64) {
		f := &frags[w]
		f.used = make([]bool, len(res.UsedBlocks))
		for i := int(lo); i < int(hi); i++ {
			in := files[i]
			seq, mt, err := fs.replayFile(in, &f.scan)
			if err == nil {
				err = fs.markFileBlocks(in, f.used)
			}
			if err != nil {
				f.err, f.errFile = err, i
				return
			}
			if seq > f.maxSeq {
				f.maxSeq = seq
			}
			if mt > f.maxTime {
				f.maxTime = mt
			}
		}
	})

	// First error by file index, so error reporting is deterministic too.
	var firstErr error
	firstAt := len(files)
	for i := range frags {
		if frags[i].err != nil && frags[i].errFile < firstAt {
			firstErr, firstAt = frags[i].err, frags[i].errFile
		}
	}
	if firstErr != nil {
		return firstErr
	}

	var maxSeq, maxTime uint64
	for i := range frags {
		f := &frags[i]
		res.NeedDedup = append(res.NeedDedup, f.scan.NeedDedup...)
		res.InProcess = append(res.InProcess, f.scan.InProcess...)
		for b, u := range f.used {
			if u {
				res.UsedBlocks[b] = true
			}
		}
		if f.maxSeq > maxSeq {
			maxSeq = f.maxSeq
		}
		if f.maxTime > maxTime {
			maxTime = f.maxTime
		}
	}
	// The worker pool has joined, but tick()/nextSeq() read these with
	// atomics for the rest of the mount's lifetime; publish them the same way.
	atomic.StoreUint64(&fs.seq, maxSeq)
	atomic.StoreUint64(&fs.clock, maxTime)
	return nil
}

// markFileBlocks marks a replayed file's log chain and mapped data pages
// in the given usage bitmap.
func (fs *FS) markFileBlocks(in *Inode, used []bool) error {
	for _, lp := range in.logPages {
		if err := markUsed(used, fs.Geo.DataStartBlock, lp); err != nil {
			return fmt.Errorf("nova: inode %d: %w", in.ino, err)
		}
	}
	var merr error
	in.tree.Walk(func(_ uint64, v rtree.Value) bool {
		if err := markUsed(used, fs.Geo.DataStartBlock, v.Block); err != nil {
			merr = fmt.Errorf("nova: inode %d: %w", in.ino, err)
			return false
		}
		return true
	})
	return merr
}

// markUsed sets the usage bit for block, validating it lies in the data
// region.
func markUsed(used []bool, dataStart uint64, block uint64) error {
	idx := int64(block) - int64(dataStart)
	if idx < 0 || idx >= int64(len(used)) {
		return fmt.Errorf("block %d outside data region", block)
	}
	used[idx] = true
	return nil
}

// replayDir rebuilds a directory's name map and log page list from its log.
// Slots inside the committed range were each explicitly appended, so a
// record that decodes as neither a dentry nor an explicitly zeroed slot is
// real log corruption: it is skipped but counted in res.DentryCorrupt,
// mirroring replayFile's strictness rather than silently masking it.
func (fs *FS) replayDir(in *Inode, res *ScanResult) error {
	in.logPages = in.logPages[:0]
	if err := fs.collectLogPages(in); err != nil {
		return err
	}
	return fs.walkLog(in.logHead, in.logTail, func(off uint64, rec layout.Record) bool {
		if rec.U8(0) == EntryInvalid {
			return true // zeroed slot (padding; never committed content)
		}
		d, err := decodeDentry(rec)
		if err != nil {
			res.DentryCorrupt++
			return true
		}
		if d.Remove {
			delete(in.names, d.Name)
		} else {
			in.names[d.Name] = d.Ino
		}
		return true
	})
}

// replayFile rebuilds one file's radix tree and live counts and collects
// flagged entries into res. Returns the largest seq and mtime seen.
func (fs *FS) replayFile(in *Inode, res *ScanResult) (uint64, uint64, error) {
	if err := fs.collectLogPages(in); err != nil {
		return 0, 0, err
	}
	var maxSeq, maxTime uint64
	var decodeErr error
	err := fs.walkLog(in.logHead, in.logTail, func(off uint64, rec layout.Record) bool {
		if rec.U8(0) == EntryInvalid {
			return true // zeroed padding slot (thorough-GC page tail)
		}
		if rec.U8(0) == EntryTruncate {
			size, seq, err := decodeTruncateEntry(rec)
			if err != nil {
				decodeErr = fmt.Errorf("nova: inode %d: entry %#x: %w", in.ino, off, err)
				return false
			}
			in.addLiveLocked(off, 1) // truncate entries pin their page (see commitExtentsLocked)
			fs.replayTruncateLocked(in, size)
			if seq > maxSeq {
				maxSeq = seq
			}
			return true
		}
		we, err := decodeWriteEntry(rec)
		if err != nil {
			decodeErr = fmt.Errorf("nova: inode %d: entry %#x: %w", in.ino, off, err)
			return false
		}
		in.addLiveLocked(off, int(we.NumPages))
		for i := uint64(0); i < uint64(we.NumPages); i++ {
			prev, replaced := in.tree.Insert(we.PgOff+i, rtree.Value{Block: we.Block + i, Entry: off})
			if replaced {
				in.live[pageOfOff(prev.Entry)]--
			}
		}
		if we.EndOff > in.size {
			in.size = we.EndOff
		}
		if we.Mtime > in.mtime {
			in.mtime = we.Mtime
		}
		if we.Seq > maxSeq {
			maxSeq = we.Seq
		}
		if we.Mtime > maxTime {
			maxTime = we.Mtime
		}
		switch we.DedupeFlag {
		case FlagNeeded:
			res.NeedDedup = append(res.NeedDedup, EntryRef{Ino: in.ino, Off: off, Seq: we.Seq})
		case FlagInProcess:
			res.InProcess = append(res.InProcess, EntryRef{Ino: in.ino, Off: off, Seq: we.Seq})
		}
		return true
	})
	if err != nil {
		return 0, 0, err
	}
	if decodeErr != nil {
		return 0, 0, decodeErr
	}
	in.pages = uint64(in.tree.Len())
	return maxSeq, maxTime, nil
}

// collectLogPages walks the page chain from logHead, filling in.logPages.
func (fs *FS) collectLogPages(in *Inode) error {
	in.logPages = nil
	seen := make(map[uint64]bool)
	for pg := in.logHead; pg != 0; {
		if seen[pg] {
			return fmt.Errorf("nova: inode %d log chain contains a cycle at page %d", in.ino, pg)
		}
		seen[pg] = true
		in.logPages = append(in.logPages, pg)
		if _, ok := in.live[pg]; !ok {
			// Materialize chain pages with no live entries: GC accounting
			// (and the end-of-mount fast-GC sweep) must see every page of
			// the chain, including ones whose entries are all dead.
			in.live[pg] = 0
		}
		next, err := fs.logPageNext(pg)
		if err != nil {
			return err
		}
		pg = next
	}
	if len(in.logPages) == 0 {
		return fmt.Errorf("nova: inode %d has no log", in.ino)
	}
	return nil
}
