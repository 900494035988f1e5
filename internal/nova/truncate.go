package nova

import (
	"fmt"
	"time"

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
// candidate like any other new page).
func (fs *FS) Truncate(in *Inode, size uint64, flag uint8) error {
	return fs.TruncateCtx(in, size, flag, obs.SpanContext{})
}

// TruncateCtx is Truncate carrying the caller's span context.
func (fs *FS) TruncateCtx(in *Inode, size uint64, flag uint8, sc obs.SpanContext) error {
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
	var tsc obs.SpanContext
	if o := fs.obs; o != nil {
		tsc = o.Tracer.ChildOrRoot(sc, sc.Tenant)
		start := time.Now()
		defer func() {
			d := time.Since(start)
			o.Truncate.ObserveSpan(d, tsc.Trace)
			o.Tracer.EmitSpan(obs.OpTruncate, tsc, sc.Span, in.ino, size, start, d)
		}()
	}
	needRemap := false
	var remapPg uint64
	if size < in.size && size%PageSize != 0 {
		remapPg = size / PageSize
		_, _, needRemap = in.Mapping(remapPg)
	}
	// Reserve every log slot of the transaction before allocating or
	// appending anything: the tail-remap and truncate entries commit
	// together, and running out of log space between the two appends must
	// be impossible — it would leak the remap block and leave a dangling
	// uncommitted append for the next commit to publish as a half-truncate.
	slots := 1
	if needRemap {
		slots = 2
	}
	if err := fs.ensureLogSpaceLocked(in, slots); err != nil {
		return err
	}
	var tailRemap *WriteEntry
	if needRemap {
		buf := make([]byte, PageSize)
		fs.readPageInto(in, remapPg, buf)
		for i := size % PageSize; i < PageSize; i++ {
			buf[i] = 0
		}
		block, err := fs.alloc.Alloc(int(in.ino), 1)
		if err != nil {
			return err
		}
		fs.Dev.WriteNT(int64(block)*PageSize, buf)
		tailRemap = &WriteEntry{
			DedupeFlag: flag,
			NumPages:   1,
			PgOff:      remapPg,
			Block:      block,
			EndOff:     size,
			Ino:        in.ino,
			Mtime:      fs.tick(),
			Seq:        fs.nextSeq(),
		}
	}
	var tailEntryOff uint64
	if tailRemap != nil {
		off, err := fs.appendEntryLocked(in, encodeWriteEntry(*tailRemap))
		if err != nil {
			fs.alloc.Free(tailRemap.Block, 1)
			return err
		}
		tailEntryOff = off
	}
	truncOff, err := fs.appendEntryLocked(in, encodeTruncateEntry(in.ino, size, fs.nextSeq()))
	if err != nil {
		// Unreachable after the slot reservation, but keep the transaction
		// leak-free regardless: nothing appended so far is committed, so
		// dropping the pending cursor and the remap block aborts cleanly.
		if tailRemap != nil {
			in.pending = 0
			fs.alloc.Free(tailRemap.Block, 1)
		}
		return err
	}
	fs.commitTailLocked(in)
	// The truncate entry pins its log page (a live reference that is never
	// dropped): live counts track only write-entry references, and a page
	// whose writes are all dead may still hold a truncate entry that earlier
	// surviving entries depend on — fast-GC'ing it would resurrect the
	// truncated mappings at replay. Thorough GC releases the pin when it
	// rewrites the chain as a snapshot.
	in.addLiveLocked(truncOff, 1)
	if tailRemap != nil {
		fs.RemapLocked(in, tailRemap.PgOff, tailRemap.Block, tailEntryOff)
		if fs.onWrite != nil && flag == FlagNeeded {
			fs.onWrite(in, tailEntryOff, tsc)
		}
	}
	fs.applyTruncateLocked(in, size)
	in.mtime = fs.tick()
	return nil
}

// replayTruncateLocked applies a truncate during the recovery scan: the
// radix mappings beyond the new size are dropped (their blocks are simply
// absent from the rebuilt usage bitmap, so the free list reclaims them —
// or, with deduplication, the FACT scrub arbitrates), but no blocks are
// freed directly.
func (fs *FS) replayTruncateLocked(in *Inode, size uint64) {
	if size < in.size {
		firstGone := (size + PageSize - 1) / PageSize
		var drop []uint64
		in.tree.Walk(func(pg uint64, _ rtree.Value) bool {
			if pg >= firstGone {
				drop = append(drop, pg)
			}
			return true
		})
		for _, pg := range drop {
			v, _ := in.tree.Delete(pg)
			in.live[pageOfOff(v.Entry)]--
		}
	}
	in.size = size
}

// applyTruncateLocked updates the DRAM state for a committed truncate:
// mappings wholly beyond the new size are dropped and their blocks
// released; a partial final page is kept (reads mask the tail by size).
func (fs *FS) applyTruncateLocked(in *Inode, size uint64) {
	if size < in.size {
		firstGone := (size + PageSize - 1) / PageSize
		var drop []uint64
		in.tree.Walk(func(pg uint64, v rtree.Value) bool {
			if pg >= firstGone {
				drop = append(drop, pg)
			}
			return true
		})
		for _, pg := range drop {
			v, _ := in.tree.Delete(pg)
			fs.dropLiveLocked(in, v.Entry, 1)
			in.shadow = append(in.shadow, v.Block)
			in.pages--
		}
		fs.reclaimShadowedLocked(in)
	}
	in.size = size
}
