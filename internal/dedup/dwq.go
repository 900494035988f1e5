package dedup

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"denova/internal/layout"
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

	// seq is a global enqueue ordinal used to reconstruct FIFO order across
	// shards for Save (the on-PM snapshot stays a single ordered stream).
	seq uint64
}

// dwqShard is one independently locked FIFO segment of the queue. All nodes
// of a given inode land in the same shard, so per-inode processing order is
// preserved no matter how many workers drain concurrently.
type dwqShard struct {
	mu    sync.Mutex //denova:locks(dwq.shard)
	items []Node
	head  int // index of the next node to dequeue
}

// DWQ is the deduplication work queue: a DRAM FIFO sharded by inode and
// shared by the foreground write path (producers) and a pool of
// deduplication workers (consumers). Enqueue cost is one shard-mutex append
// plus an atomic — negligible next to an NVM access, which is why the paper
// measures <1 % foreground impact even under aggressive polling (§V-B1).
//
// Sharding serves two purposes: producers on different inodes do not
// contend on one mutex, and per-inode FIFO order is kept per shard without
// any global ordering. Correctness does not depend on that order —
// ProcessEntry revalidates every page against the live log (the per-page
// entryOff check), so any delivery order is safe — but draining a file's
// nodes oldest-first means newer nodes usually find their entries still
// current instead of being skipped as stale and re-found later. Consumers
// start their scan at a rotating shard cursor so
// concurrent DequeueBatch calls drain disjoint shards in the common case.
//
// The doorbell is a condition variable, not a channel: an edge-triggered
// cap-1 channel loses wakeups when several consumers race (two enqueues can
// collapse into one token, leaving a nonempty shard with no pending
// doorbell and a worker asleep forever). Wait blocks only while the queue
// is observably empty, and every Enqueue signals under the same mutex, so a
// worker can never sleep while work is pending.
type DWQ struct {
	shards []dwqShard
	cursor uint64 // atomic round-robin start shard for DequeueBatch

	total    int64 // atomic: current queue length across shards
	totalEnq int64 // atomic
	totalDeq int64 // atomic
	peakLen  int64 // atomic
	seq      uint64

	waitMu   sync.Mutex //denova:locks(dwq.doorbell)
	waitCond *sync.Cond
	wakeGen  uint64 // under waitMu: bumped by WakeAll so waiters re-check stop conditions

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

// defaultDWQShards bounds the shard count: enough for one shard per worker
// on big hosts, without a 64-way fan-out on a laptop.
const defaultDWQShards = 16

// NewDWQ returns an empty queue with the default shard count
// (min(GOMAXPROCS, 16), and at least 2 so the sharded paths are always
// exercised).
func NewDWQ() *DWQ {
	n := runtime.GOMAXPROCS(0)
	if n > defaultDWQShards {
		n = defaultDWQShards
	}
	if n < 2 {
		n = 2
	}
	return NewDWQSharded(n)
}

// NewDWQSharded returns an empty queue with exactly nshard shards.
func NewDWQSharded(nshard int) *DWQ {
	if nshard < 1 {
		nshard = 1
	}
	q := &DWQ{shards: make([]dwqShard, nshard)}
	q.waitCond = sync.NewCond(&q.waitMu)
	return q
}

// ShardCount returns the number of shards.
func (q *DWQ) ShardCount() int { return len(q.shards) }

// shardOf maps an inode to its shard. Fibonacci hashing spreads the
// low-entropy sequential inode numbers across shards.
func (q *DWQ) shardOf(ino uint64) *dwqShard {
	h := ino * 0x9E3779B97F4A7C15
	return &q.shards[h%uint64(len(q.shards))]
}

// Enqueue appends a work item to its inode's shard and rings the doorbell.
func (q *DWQ) Enqueue(n Node) {
	if n.Enqueued.IsZero() {
		n.Enqueued = time.Now()
	}
	n.seq = atomic.AddUint64(&q.seq, 1)
	sh := q.shardOf(n.Ino)
	sh.mu.Lock()
	sh.items = append(sh.items, n)
	sh.mu.Unlock()
	atomic.AddInt64(&q.totalEnq, 1)
	l := atomic.AddInt64(&q.total, 1)
	for {
		p := atomic.LoadInt64(&q.peakLen)
		if l <= p || atomic.CompareAndSwapInt64(&q.peakLen, p, l) {
			break
		}
	}
	// Signal under waitMu: a waiter is either inside Wait (and gets the
	// signal) or has not yet checked the length (and will see total > 0).
	q.waitMu.Lock()
	q.waitCond.Signal()
	q.waitMu.Unlock()
}

// DequeueBatch removes up to m nodes (m <= 0 means all), scanning shards
// round-robin from a rotating start position. Within a shard nodes come out
// in FIFO order; across shards there is no global order (per-inode order is
// all the pipeline needs — see ProcessEntry's stale-entry check).
func (q *DWQ) DequeueBatch(m int) []Node {
	nsh := len(q.shards)
	start := int(atomic.AddUint64(&q.cursor, 1)) % nsh
	var out []Node
	for i := 0; i < nsh; i++ {
		if m > 0 && len(out) >= m {
			break
		}
		sh := &q.shards[(start+i)%nsh]
		sh.mu.Lock()
		avail := len(sh.items) - sh.head
		take := avail
		if m > 0 && take > m-len(out) {
			take = m - len(out)
		}
		if take > 0 {
			// The batch MUST be copied out (append copies): once the lock is
			// released, concurrent enqueues may append into (and compaction
			// may rewrite) the backing array a sub-slice would alias, handing
			// the consumer duplicated and dropped nodes.
			out = append(out, sh.items[sh.head:sh.head+take]...)
			sh.head += take
		}
		if sh.head == len(sh.items) {
			sh.items = sh.items[:0]
			sh.head = 0
		} else if sh.head > 4096 && sh.head*2 > len(sh.items) {
			// Compact to keep the backing array bounded.
			sh.items = append(sh.items[:0], sh.items[sh.head:]...)
			sh.head = 0
		}
		sh.mu.Unlock()
	}
	if len(out) > 0 {
		atomic.AddInt64(&q.total, -int64(len(out)))
		atomic.AddInt64(&q.totalDeq, int64(len(out)))
	}
	if h := q.lingerHook.Load(); h != nil {
		now := time.Now()
		for _, n := range out {
			(*h)(now.Sub(n.Enqueued))
		}
	}
	return out
}

// Wait blocks until the queue is nonempty or WakeAll is called. Together
// with the signal-under-mutex in Enqueue this is lost-wakeup-free: a worker
// never sleeps while a nonempty shard has no pending doorbell. Spurious
// returns are possible (another consumer may win the nodes); callers loop.
func (q *DWQ) Wait() {
	q.waitMu.Lock()
	gen := q.wakeGen
	for atomic.LoadInt64(&q.total) == 0 && q.wakeGen == gen {
		q.waitCond.Wait()
	}
	q.waitMu.Unlock()
}

// WakeAll wakes every waiter regardless of queue state (shutdown, tick, or
// any change of external conditions a waiter should re-check).
func (q *DWQ) WakeAll() {
	q.waitMu.Lock()
	q.wakeGen++
	q.waitCond.Broadcast()
	q.waitMu.Unlock()
}

// Len returns the number of queued nodes across all shards.
func (q *DWQ) Len() int { return int(atomic.LoadInt64(&q.total)) }

// ShardLens returns the current depth of each shard (the `denova stats`
// per-shard queue report).
func (q *DWQ) ShardLens() []int {
	out := make([]int, len(q.shards))
	for i := range q.shards {
		sh := &q.shards[i]
		sh.mu.Lock()
		out[i] = len(sh.items) - sh.head
		sh.mu.Unlock()
	}
	return out
}

// Counts returns lifetime enqueue/dequeue totals.
func (q *DWQ) Counts() (enq, deq int64) {
	return atomic.LoadInt64(&q.totalEnq), atomic.LoadInt64(&q.totalDeq)
}

// Peak returns the largest queue length observed — the DRAM footprint
// high-water mark of §V-B2 (each node costs NodeBytes).
func (q *DWQ) Peak() int { return int(atomic.LoadInt64(&q.peakLen)) }

// NodeBytes is the DRAM cost of one queued node.
const NodeBytes = 56 // ino + entry offset + enqueue timestamp + span context

// --- Clean-shutdown persistence (§IV-B1: "On a normal shutdown, the
// entries in the DWQ are saved to NVM and restored to DRAM after power
// on.") ---

const (
	dwqMagic      = 0x44575153415645 // "DWQSAVE"
	dwqHdrSize    = 24               // magic u64, count u64, csum u32, pad
	dwqRecordSize = 16               // ino u64, entryOff u64
)

// snapshot copies the live nodes of every shard and restores the global
// enqueue order, so the on-PM format is the same single FIFO stream it was
// before sharding.
func (q *DWQ) snapshot() []Node {
	var nodes []Node
	for i := range q.shards {
		sh := &q.shards[i]
		sh.mu.Lock()
		nodes = append(nodes, sh.items[sh.head:]...)
		sh.mu.Unlock()
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].seq < nodes[j].seq })
	return nodes
}

// Save persists the queue contents into the save area at off spanning the
// given number of pages. Returns the number of nodes saved and whether the
// area overflowed (remaining nodes dropped; the caller must raise the
// superblock overflow flag so the next mount falls back to the flag scan).
func (q *DWQ) Save(dev *pmem.Device, off int64, pages int64) (saved int, overflow bool) {
	nodes := q.snapshot()
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
