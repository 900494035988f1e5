package nova

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"denova/internal/obs"
)

// SplitFS-style split write path. The slow path is the CoW write in
// file.go: one extent, one log entry, two fences per write. The fast path
// staged here accumulates appends and overwrites in per-inode DRAM page
// images and makes them durable with a single "relink" — the same
// commitExtentsLocked with one extent per contiguous run of staged pages,
// so N staged writes cost the two fences of one commit instead of 2N
// (SplitFS's staged append + relink argument, PAPERS.md). Until the relink
// commit the staged bytes live only in DRAM: a crash loses exactly the
// unsynced writes and can never tear the log, because nothing of the batch
// is visible until the single 8-byte tail store. Reads overlay the staging
// buffer on the radix tree under the inode read lock, so stagers and
// readers never serialize on the inode write lock. Metadata operations
// (truncate, delete, thorough GC, unmount) quiesce the buffer first:
// truncate and GC relink, delete discards.

// stageBuf is the DRAM staging state of one file. Its mutex nests inside
// the inode lock (writers hold in.mu.RLock + st.mu; relink holds in.mu +
// st.mu), and is always taken before any allocator lock.
type stageBuf struct {
	mu    sync.RWMutex      //denova:locks(nova.stage)
	pages map[uint64][]byte // file page -> full PageSize image
	size  uint64            // effective file size including staged bytes
	flag  uint8             // dedupe-flag the relinked entries will carry
	// sc is the span context of the most recent traced stager: the relink
	// that eventually drains the buffer (possibly under a different
	// request, or none) attributes its spans and dedup enqueues to that
	// originating write's trace.
	sc obs.SpanContext
}

func newStageBuf() *stageBuf {
	return &stageBuf{pages: make(map[uint64][]byte)}
}

// reset empties the buffer once its pages are relinked or discarded. st.mu
// held. It drops the buffer's references to the page images rather than
// reusing them: relinked images now belong to the write hook's PageImages
// hint, and nothing writes to them again.
func (st *stageBuf) reset() {
	st.pages = make(map[uint64][]byte)
	st.size = 0
	st.sc = obs.SpanContext{}
}

// dirty reports whether the buffer holds unrelinked pages. st.mu held.
func (st *stageBuf) dirty() bool { return len(st.pages) > 0 }

// effectiveSize returns the file size as seen through the staging overlay.
// st.mu held (read or write); base is the committed in.size.
func (st *stageBuf) effectiveSize(base uint64) uint64 {
	if st.dirty() && st.size > base {
		return st.size
	}
	return base
}

// StageWrite is the fast write path: it copies data into the inode's DRAM
// staging buffer and returns without touching PM. Only the inode READ lock
// is held, so concurrent readers (and other stagers) are never excluded;
// per-buffer ordering comes from the staging mutex. The bytes become
// durable at the next relink (File.Sync, truncate/GC quiesce, or the
// staging flusher); a crash before that loses them — and only them. sc is
// the caller's span context (zero = untraced); the buffer remembers the last
// traced stager so the eventual relink (and the dedup work it enqueues) is
// attributed to the request that staged the data.
func (fs *FS) StageWrite(in *Inode, off uint64, data []byte, flag uint8, sc obs.SpanContext) (int, error) {
	if len(data) == 0 {
		return 0, nil
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if in.dir {
		return 0, fmt.Errorf("stage write: inode %d: %w", in.ino, ErrIsDir)
	}
	st := in.stage
	if st == nil {
		return 0, fmt.Errorf("stage write: inode %d has no staging buffer", in.ino)
	}
	t := fs.beginOp(sc)
	st.mu.Lock()
	if !st.dirty() {
		st.size = in.size
	}
	st.flag = flag
	if t.sc.Valid() {
		st.sc = t.sc
	}
	end := off + uint64(len(data))
	written := uint64(0)
	n := uint64(len(data))
	for written < n {
		pg := (off + written) / PageSize
		po := (off + written) % PageSize
		chunk := PageSize - po
		if chunk > n-written {
			chunk = n - written
		}
		img, ok := st.pages[pg]
		if !ok {
			img = make([]byte, PageSize)
			if po != 0 || chunk != PageSize {
				// Partial coverage: merge the page's current content. Bytes
				// past in.size in a mapped page are zero by construction
				// (partial tail pages are assembled zero-padded; truncate
				// zero-tails its cut page), so no extra masking is needed.
				fs.readPageInto(in, pg, img)
			}
			st.pages[pg] = img
		}
		copy(img[po:po+chunk], data[written:written+chunk])
		written += chunk
	}
	if end > st.size {
		st.size = end
	}
	st.mu.Unlock()
	atomic.AddInt64(&fs.stagedBytes, int64(len(data)))
	if o := t.o; o != nil {
		t.end(o.Stage, obs.OpStageWrite, in.ino, uint64(len(data)))
		o.StagedBytes.Add(int64(len(data)))
	}
	return len(data), nil
}

// StagedPages reports how many pages are staged and not yet relinked.
// Flush policies poll it without taking the inode lock.
func (in *Inode) StagedPages() int {
	st := in.stage
	if st == nil {
		return 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.pages)
}

// Relink drains the inode's staging buffer through one batched log commit.
// It returns the number of write entries appended (0 when the buffer was
// clean). On error (ENOSPC) the staging buffer is left intact — nothing is
// lost, and the caller may free space and retry.
func (fs *FS) Relink(in *Inode) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return fs.relinkLocked(in)
}

// relinkLocked is Relink with the inode write lock already held. It is the
// quiesce point used by truncate, thorough GC, and unmount.
func (fs *FS) relinkLocked(in *Inode) (int, error) {
	st := in.stage
	if st == nil {
		return 0, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.dirty() {
		return 0, nil
	}

	// The relink span continues the last traced stager's trace, so the
	// batched commit (and the dedup work it enqueues) shows up under the
	// request that staged the data — even when a later op triggered it.
	t := fs.beginOp(st.sc)

	// Coalesce the staged pages into contiguous extents; each becomes one
	// write entry describing one contiguous block run.
	pgs := make([]uint64, 0, len(st.pages))
	for pg := range st.pages {
		pgs = append(pgs, pg)
	}
	sort.Slice(pgs, func(i, j int) bool { return pgs[i] < pgs[j] })
	imgs := make([][]byte, len(pgs))
	var exts []fileExtent
	for i, pg := range pgs {
		imgs[i] = st.pages[pg]
		if last := len(exts) - 1; last < 0 || pg != exts[last].pg+uint64(exts[last].n) {
			exts = append(exts, fileExtent{pg: pg, imgs: imgs[i:i]})
		}
		e := &exts[len(exts)-1]
		e.n++
		e.imgs = e.imgs[:e.n] // the run's images sit side by side in imgs
		e.end = min((pg+1)*PageSize, st.size)
	}
	if err := fs.commitExtentsLocked(in, exts, st.flag, nil, &t); err != nil {
		return 0, err
	}

	st.reset()

	atomic.AddInt64(&fs.relinks, 1)
	atomic.AddInt64(&fs.relinkRuns, int64(len(exts)))
	atomic.AddInt64(&fs.relinkPages, int64(len(pgs)))
	if o := t.o; o != nil {
		runs, pages := uint64(len(exts)), uint64(len(pgs))
		t.end(o.Relink, obs.OpRelink, in.ino, runs)
		if o.Fine {
			t.emitStep(o.RelinkAlloc, obs.OpRelinkAlloc, in.ino, runs, t.steps[stepAlloc])
			t.emitStep(o.RelinkFill, obs.OpRelinkFill, in.ino, pages, t.steps[stepFill])
			t.emitStep(o.RelinkLog, obs.OpRelinkLog, in.ino, runs, t.steps[stepLog])
			t.emitStep(o.RelinkInstall, obs.OpRelinkInstall, in.ino, pages, t.steps[stepRadix]+t.steps[stepReclaim])
		}
	}
	return len(exts), nil
}

// RelinkAll relinks every file inode with staged data. Returns the first
// error (continuing past it so later files still drain).
func (fs *FS) RelinkAll() error {
	var first error
	fs.WalkFiles(func(in *Inode) {
		if in.StagedPages() == 0 {
			return
		}
		if _, err := fs.Relink(in); err != nil && first == nil {
			first = err
		}
	})
	return first
}

// discardStagingLocked drops staged data without persisting it (delete
// path: the file is going away, so the staged bytes die with it).
func (in *Inode) discardStagingLocked() {
	if in.stage == nil {
		return
	}
	in.stage.mu.Lock()
	in.stage.reset()
	in.stage.mu.Unlock()
}
