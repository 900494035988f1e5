package nova

// This file is the surface the DeNOVA deduplication engine drives. The
// engine runs Algorithm 1 of the paper: it appends write entries that remap
// duplicate file pages onto canonical blocks, commits them with the inode
// log tail, updates the radix tree, and reclaims the now-obsolete copies.
// All *Locked methods require the inode's write lock. The dedup daemon
// holds it for the transaction proper (§IV-E) but not while it fingerprints
// a node's pages: it reads them with FreePin.ReadPinned (pin.go) and, back
// under the lock, uses TreeGenLocked to tell whether a page it hashed can
// have moved.

import (
	"sync/atomic"

	"denova/internal/rtree"
)

// ReadBlock copies the contents of a data page into buf (at most one page).
func (fs *FS) ReadBlock(block uint64, buf []byte) {
	n := len(buf)
	if n > PageSize {
		n = PageSize
	}
	fs.Dev.Read(int64(block)*PageSize, buf[:n])
}

// AppendDedupEntryLocked appends — flushed, but neither fenced nor
// committed — a one-page write entry pointing file page pg of in at the
// canonical block (step ④ of Fig. 6). The entry's size contribution is its
// page's end capped at sizeCap, so recovery does not inflate the file size
// past its true end. It reserves its own log slot, so a full device fails
// this page alone and leaves the entries appended before it in place for
// CommitLocked.
func (fs *FS) AppendDedupEntryLocked(in *Inode, pg, block, sizeCap uint64, flag uint8) (uint64, error) {
	if err := fs.reserve(in, 1); err != nil {
		return 0, err
	}
	return fs.append(in, encodeWriteEntry(WriteEntry{
		DedupeFlag: flag,
		NumPages:   1,
		PgOff:      pg,
		Block:      block,
		EndOff:     min((pg+1)*PageSize, sizeCap),
		Ino:        in.ino,
		Mtime:      in.mtime, // dedup is content-neutral; mtime unchanged
		Seq:        fs.nextSeq(),
	})), nil
}

// CommitLocked publishes all entries appended since the last commit with
// one fence and a single atomic persistent store of the inode log tail
// (step ⑤ of Fig. 6).
func (fs *FS) CommitLocked(in *Inode) { fs.commit(in) }

// RemapLocked points file page pg at (block, entryOff), maintaining log
// live counts and releasing the shadowed block through the releaser. Used
// by the dedup engine after its log commit to retire duplicate copies.
func (fs *FS) RemapLocked(in *Inode, pg, block, entryOff uint64) {
	fs.installRadixLocked(in, pg, block, 1, entryOff)
	fs.reclaimShadowedLocked(in)
}

// ReserveLocked makes room for n appends to in's log (see reserve), so a
// transaction that reserves its whole size first can append without
// failing.
func (fs *FS) ReserveLocked(in *Inode, n int) error { return fs.reserve(in, n) }

// SizeLocked returns the file size; the caller holds the inode lock.
func (in *Inode) SizeLocked() uint64 { return in.size }

// BumpSizeLocked grows the file size to at least end and stamps the mtime;
// used by the inline-dedup write path, which appends its own entries.
func (fs *FS) BumpSizeLocked(in *Inode, end uint64) {
	if end > in.size {
		in.size = end
	}
	in.mtime = fs.tick()
	atomic.AddInt64(&fs.writes, 1)
}

// WalkFiles calls fn, with no lock held, for every regular file inode that
// exists when it is called: the FACT scrubber builds its in-use bitmap with
// it, RelinkAll drains staging buffers. fn must not create or delete files.
func (fs *FS) WalkFiles(fn func(in *Inode)) {
	fs.imu.RLock()
	files := make([]*Inode, 0, len(fs.inodes))
	for _, in := range fs.inodes {
		if !in.dir {
			files = append(files, in)
		}
	}
	fs.imu.RUnlock()
	for _, in := range files {
		fn(in)
	}
}

// WalkMappingsLocked iterates the file's current page mappings in page
// order; the caller holds at least the read lock.
func (in *Inode) WalkMappingsLocked(fn func(pg, block, entryOff uint64) bool) {
	in.tree.Walk(func(pg uint64, v rtree.Value) bool {
		return fn(pg, v.Block, v.Entry)
	})
}
