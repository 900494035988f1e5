package nova

import (
	"fmt"

	"denova/internal/layout"
	"denova/internal/obs"
	"denova/internal/rtree"
)

// Truncate support. NOVA logs size changes as attribute entries; we follow
// the same pattern with a dedicated truncate entry type so a crash between
// the log commit and the page reclamation is recoverable: replay applies
// truncates in log order, and pages beyond the final size simply drop out
// of the radix tree (their blocks fall out of the recovery bitmap and
// return to the free list — with deduplication, shared blocks survive
// through their reference counts exactly as in the delete path).

// EntryTruncate is the log entry type recording a size change.
const EntryTruncate = 4

// Truncate-entry field offsets (64 B record).
const (
	teType = 0  // u8
	teSize = 8  // u64 new size
	teIno  = 16 // u64
	teSeq  = 24 // u64
	teCsum = 56 // u32 over [0,56)
)

func encodeTruncateEntry(ino, size, seq uint64) layout.Record {
	rec := make(layout.Record, EntrySize)
	rec.PutU8(teType, EntryTruncate)
	rec.PutU64(teSize, size)
	rec.PutU64(teIno, ino)
	rec.PutU64(teSeq, seq)
	rec.PutU32(teCsum, layout.Checksum(rec[:teCsum]))
	return rec
}

func decodeTruncateEntry(rec layout.Record) (size, seq uint64, err error) {
	if rec.U8(teType) != EntryTruncate {
		return 0, 0, fmt.Errorf("nova: not a truncate entry")
	}
	if got, want := rec.U32(teCsum), layout.Checksum(rec[:teCsum]); got != want {
		return 0, 0, fmt.Errorf("nova: truncate entry checksum mismatch")
	}
	return rec.U64(teSize), rec.U64(teSeq), nil
}

// Truncate sets the file size. Shrinking drops page mappings beyond the
// new size and reclaims their blocks (through the releaser); growing just
// raises the size — the new range reads as a hole.
//
// When the new size cuts into a mapped page, the bytes between the new end
// and the page boundary must read as zeros if the file later grows again
// (POSIX semantics). The page cannot be zeroed in place — with
// deduplication it may be shared with other files — so the tail page is
// copied-on-write: a zero-tailed copy goes to a fresh block and a write
// entry remaps the page, committed together with the truncate entry by one
// atomic tail store.
// flag is the dedupe-flag for the tail-remap entry (FlagNeeded when
// deduplication is enabled, so the zero-tailed copy becomes a dedup
// candidate like any other new page). sc is the caller's span context
// (zero = untraced).
func (fs *FS) Truncate(in *Inode, size uint64, flag uint8, sc obs.SpanContext) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.dir {
		return fmt.Errorf("truncate: inode %d: %w", in.ino, ErrIsDir)
	}
	// Quiesce the fast path: staged data must reach the log before the
	// truncate entry, or replay order would resurrect it past the cut.
	if _, err := fs.relinkLocked(in); err != nil {
		return err
	}
	if size == in.size {
		return nil
	}
	t := fs.beginOp(sc)
	// A cut into a mapped page remaps it: one one-page extent holding the
	// zero-tailed copy, committed with the truncate entry as its trailer
	// (assigned into ext, not appended: append would move buf to the heap).
	var ext [1]fileExtent
	remap := 0
	if pg := size / PageSize; size < in.size && size%PageSize != 0 {
		if _, _, mapped := in.Mapping(pg); mapped {
			buf := make([]byte, PageSize)
			fs.readPageInto(in, pg, buf)
			clear(buf[size%PageSize:])
			ext[0], remap = fileExtent{pg: pg, n: 1, end: size, data: buf}, 1
		}
	}
	if err := fs.commitExtentsLocked(in, ext[:remap], flag, encodeTruncateEntry(in.ino, size, fs.nextSeq()), &t); err != nil {
		return err
	}
	fs.applyTruncateLocked(in, size)
	if o := t.o; o != nil {
		t.end(o.Truncate, obs.OpTruncate, in.ino, size)
	}
	return nil
}

// dropMappingsLocked removes every radix mapping of a page at or beyond
// size and hands each to drop, then sets the size.
func (in *Inode) dropMappingsLocked(size uint64, drop func(v rtree.Value)) {
	if size < in.size {
		in.treeGen++
		firstGone := (size + PageSize - 1) / PageSize
		var gone []uint64
		in.tree.Walk(func(pg uint64, _ rtree.Value) bool {
			if pg >= firstGone {
				gone = append(gone, pg)
			}
			return true
		})
		for _, pg := range gone {
			v, _ := in.tree.Delete(pg)
			drop(v)
		}
	}
	in.size = size
}

// replayTruncateLocked applies a truncate during the recovery scan: the
// radix mappings beyond the new size are dropped (their blocks are simply
// absent from the rebuilt usage bitmap, so the free list reclaims them —
// or, with deduplication, the FACT scrub arbitrates), but no blocks are
// freed directly.
func (fs *FS) replayTruncateLocked(in *Inode, size uint64) {
	in.dropMappingsLocked(size, func(v rtree.Value) { in.live[pageOfOff(v.Entry)]-- })
}

// applyTruncateLocked updates the DRAM state for a committed truncate:
// mappings wholly beyond the new size are dropped and their blocks
// released; a partial final page is kept (reads mask the tail by size).
func (fs *FS) applyTruncateLocked(in *Inode, size uint64) {
	in.dropMappingsLocked(size, func(v rtree.Value) {
		fs.dropLiveLocked(in, v.Entry, 1)
		in.shadow = append(in.shadow, v.Block)
		in.pages--
	})
	fs.reclaimShadowedLocked(in)
}
