package dedup

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"denova/internal/layout"
	"denova/internal/nova"
	"denova/internal/pmem"
)

// Node is one deduplication work item: a committed write entry awaiting
// deduplication (§IV-B1).
type Node struct {
	Ino      uint64
	EntryOff uint64
	Enqueued time.Time

	// Trace/Span/Tenant carry the span context of the write that enqueued
	// the node, so the daemon's async work is attributable to the
	// originating request. DRAM-only: the on-PM Save record stays the
	// 16-byte (ino, entryOff) pair, so nodes restored after a crash carry
	// a zero context — acceptable for a debugging attribution.
	Trace  uint64
	Span   uint64
	Tenant uint16

	// Hint holds a relinked entry's stage-page images, so ProcessEntry can
	// hash them instead of reading the blocks back (see nova.PageImages).
	// DRAM-only, like the span context: Save drops it, and the DWQ holds
	// at most hintCap hinted pages at once.
	Hint nova.PageImages
}

// hintCap bounds the stage-page images queued nodes hold at once, in pages.
// It is a constant, not a setting: the images are relink's own buffers, so
// the cap is only a ceiling on how much garbage the queue may keep alive.
// On ingest-staged (relinks of 16.7 pages on average, the single worker
// 97 % busy) the queue peaks at 90–160 nodes; with 2,048 pages (8 MiB) the
// traced seed-1 run on the 2-core benchmark host still hashed 99.9 % of
// its pages from images, and rt.heap_peak_mb rose by 2 MiB. With Go's
// default GC target the heap may grow by up to twice what the cap holds. A
// node enqueued past the cap loses its hint and is hashed from PM, as a
// slow-path write is.
const hintCap = 2048

// DWQ is the deduplication work queue of §IV-B1: a mutex-guarded FIFO in
// DRAM shared by the foreground write path (producers) and a pool of
// deduplication workers (consumers). Enqueue cost is one mutex-held append
// — negligible next to an NVM access, which is why the paper measures <1 %
// foreground impact even under aggressive polling (§V-B1).
//
// Correctness does not depend on delivery order — ProcessEntry revalidates
// every page against the live log (the per-page entryOff check) — but
// draining oldest-first means newer nodes usually find their entries still
// current instead of being skipped as stale and re-found later.
//
// The doorbell is a condition variable on the queue's mutex, not a
// channel: an edge-triggered cap-1 channel loses wakeups when several
// consumers race (two enqueues can collapse into one token, leaving a
// nonempty queue with no pending doorbell and a worker asleep forever).
// Wait blocks only while the queue is observably empty, and every Enqueue
// signals under the same mutex, so a worker can never sleep while work is
// pending.
type DWQ struct {
	mu       sync.Mutex //denova:locks(dwq)
	doorbell *sync.Cond // on mu
	items    []Node
	head     int    // index of the next node to dequeue
	wakeGen  uint64 // bumped by WakeAll so waiters re-check stop conditions
	totalEnq int64
	totalDeq int64
	peakLen  int
	hinted   int // pages of hint images the queued nodes hold (<= hintCap)

	// lingerHook, when set, observes each dequeued node's time in queue
	// (enqueue→dequeue), the Fig. 10 metric. May be called concurrently
	// from every consumer goroutine. Atomic because it is installed while
	// the daemon is already dequeuing (see SetLingerHook).
	lingerHook atomic.Pointer[func(d time.Duration)]
}

// SetLingerHook installs (or, with nil, removes) the linger observer. Safe
// to call while consumers are running: each DequeueBatch loads the hook
// once, so a batch sees either the old hook or the new one.
func (q *DWQ) SetLingerHook(h func(d time.Duration)) {
	if h == nil {
		q.lingerHook.Store(nil)
		return
	}
	q.lingerHook.Store(&h)
}

// NewDWQ returns an empty queue.
func NewDWQ() *DWQ {
	q := &DWQ{}
	q.doorbell = sync.NewCond(&q.mu)
	return q
}

// Enqueue appends a work item and rings the doorbell.
func (q *DWQ) Enqueue(n Node) {
	if n.Enqueued.IsZero() {
		n.Enqueued = time.Now()
	}
	q.mu.Lock()
	if k := len(n.Hint.Imgs); k > 0 {
		if q.hinted+k > hintCap {
			n.Hint = nova.PageImages{}
		} else {
			q.hinted += k
		}
	}
	q.items = append(q.items, n)
	q.totalEnq++
	q.peakLen = max(q.peakLen, len(q.items)-q.head)
	// Signal under mu: a waiter is either inside Wait (and gets the
	// signal) or has not yet checked the length (and will see the node).
	q.doorbell.Signal()
	q.mu.Unlock()
}

// DequeueBatch removes up to m nodes (m <= 0 means all) in FIFO order.
func (q *DWQ) DequeueBatch(m int) []Node {
	q.mu.Lock()
	take := len(q.items) - q.head
	if m > 0 && take > m {
		take = m
	}
	var out []Node
	if take > 0 {
		// The batch MUST be copied out (append copies): once the lock is
		// released, concurrent enqueues may append into (and compaction
		// may rewrite) the backing array a sub-slice would alias, handing
		// the consumer duplicated and dropped nodes.
		out = append(out, q.items[q.head:q.head+take]...)
		for _, n := range out {
			q.hinted -= len(n.Hint.Imgs)
		}
		// The vacated slots must not keep the hints' images alive.
		clear(q.items[q.head : q.head+take])
		q.head += take
		q.totalDeq += int64(take)
	}
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 4096 && q.head*2 > len(q.items) {
		// Compact to keep the backing array bounded, clearing the slots
		// past the moved nodes so they keep no images alive.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.mu.Unlock()
	if h := q.lingerHook.Load(); h != nil {
		now := time.Now()
		for _, n := range out {
			(*h)(now.Sub(n.Enqueued))
		}
	}
	return out
}

// Wait blocks until the queue is nonempty, other (when non-nil) reports
// work held outside the queue, or WakeAll is called. Together with the
// signal-under-mutex in Enqueue and Ring this is lost-wakeup-free: a worker
// never sleeps while the queue, or other work published before its Ring,
// has no pending doorbell. Spurious returns are possible (another consumer
// may win the work); callers loop.
func (q *DWQ) Wait(other func() bool) {
	q.mu.Lock()
	gen := q.wakeGen
	for len(q.items) == q.head && q.wakeGen == gen && (other == nil || !other()) {
		q.doorbell.Wait()
	}
	q.mu.Unlock()
}

// Ring wakes one waiter for work published outside the queue — the nova
// reclaim queue rings it after each deferred batch.
func (q *DWQ) Ring() {
	q.mu.Lock()
	q.doorbell.Signal()
	q.mu.Unlock()
}

// WakeAll wakes every waiter regardless of queue state (shutdown, tick, or
// any change of external conditions a waiter should re-check).
func (q *DWQ) WakeAll() {
	q.mu.Lock()
	q.wakeGen++
	q.doorbell.Broadcast()
	q.mu.Unlock()
}

// Len returns the number of queued nodes.
func (q *DWQ) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// Counts returns lifetime enqueue/dequeue totals.
func (q *DWQ) Counts() (enq, deq int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.totalEnq, q.totalDeq
}

// Peak returns the largest queue length observed — the DRAM footprint
// high-water mark of §V-B2 (each node costs NodeBytes).
func (q *DWQ) Peak() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.peakLen
}

// NodeBytes is the DRAM cost of one queued node, not counting the hint's
// images (bounded by hintCap).
const NodeBytes = 96 // ino + entry offset + enqueue timestamp + span context + hint

// --- Clean-shutdown persistence (§IV-B1: "On a normal shutdown, the
// entries in the DWQ are saved to NVM and restored to DRAM after power
// on.") ---

const (
	dwqMagic      = 0x44575153415645 // "DWQSAVE"
	dwqHdrSize    = 24               // magic u64, count u64, csum u32, pad
	dwqRecordSize = 16               // ino u64, entryOff u64
)

// Save persists the queue contents into the save area at off spanning the
// given number of pages. Returns the number of nodes saved and whether the
// area overflowed (remaining nodes dropped; the caller must raise the
// superblock overflow flag so the next mount falls back to the flag scan).
func (q *DWQ) Save(dev *pmem.Device, off int64, pages int64) (saved int, overflow bool) {
	q.mu.Lock()
	nodes := append([]Node(nil), q.items[q.head:]...)
	q.mu.Unlock()
	capacity := int(pages*pmem.PageSize-dwqHdrSize) / dwqRecordSize
	if len(nodes) > capacity {
		nodes = nodes[:capacity]
		overflow = true
	}
	body := make(layout.Record, len(nodes)*dwqRecordSize)
	for i, n := range nodes {
		body.PutU64(i*dwqRecordSize, n.Ino)
		body.PutU64(i*dwqRecordSize+8, n.EntryOff)
	}
	hdr := make(layout.Record, dwqHdrSize)
	hdr.PutU64(0, dwqMagic)
	hdr.PutU64(8, uint64(len(nodes)))
	hdr.PutU32(16, layout.Checksum(body))
	// Body first, header (with checksum) last: a torn save is detected and
	// ignored at restore.
	dev.WriteNT(off+dwqHdrSize, body)
	dev.WriteNT(off, hdr)
	return len(nodes), overflow
}

// Restore reloads a previously saved queue. Returns an error when the save
// area holds no valid snapshot (caller falls back to the dedupe-flag scan).
func (q *DWQ) Restore(dev *pmem.Device, off int64, pages int64) (int, error) {
	hdr := make(layout.Record, dwqHdrSize)
	dev.Read(off, hdr)
	if hdr.U64(0) != dwqMagic {
		return 0, fmt.Errorf("dedup: no DWQ snapshot")
	}
	count := int(hdr.U64(8))
	capacity := int(pages*pmem.PageSize-dwqHdrSize) / dwqRecordSize
	if count > capacity {
		return 0, fmt.Errorf("dedup: DWQ snapshot count %d exceeds area capacity %d", count, capacity)
	}
	body := make(layout.Record, count*dwqRecordSize)
	dev.Read(off+dwqHdrSize, body)
	if layout.Checksum(body) != hdr.U32(16) {
		return 0, fmt.Errorf("dedup: DWQ snapshot checksum mismatch")
	}
	now := time.Now()
	for i := 0; i < count; i++ {
		q.Enqueue(Node{
			Ino:      body.U64(i * dwqRecordSize),
			EntryOff: body.U64(i*dwqRecordSize + 8),
			Enqueued: now,
		})
	}
	return count, nil
}

// Invalidate wipes the snapshot header so a stale save cannot be restored
// after the queue has been consumed.
func Invalidate(dev *pmem.Device, off int64) {
	dev.PersistStore64(off, 0)
}
