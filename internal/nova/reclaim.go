package nova

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// reclaimQueueCap bounds the blocks step ⑤ may leave to the dedup daemon.
// It is a constant, not a setting, because both directions cost a bounded
// metric: on the 2-core benchmark host (fileserver, alternating pairs
// against synchronous reclaim) 1,024 blocks took ops/s +20 % with
// stored_per_user_byte +2.0 %, while 4,096 took ops/s +32 % but
// stored_per_user_byte +4.2 %, past its 4 % bound — every block the daemon
// reclaims is time it does not spend deduplicating. The daemon rather than
// a goroutine of its own serves the queue for the same reason: a third
// runnable goroutine on two cores raised ingest-staged append_p99_us by
// 157 %.
const reclaimQueueCap = 1024

// reclaimQueue holds shadowed blocks whose release step ⑤ deferred to the
// dedup daemon. It lives in DRAM only: a crash loses the queued decrements,
// which leaves RFC over-counts for the scrubber (DESIGN.md §3.1), and the
// allocator is rebuilt from the logs at mount anyway.
type reclaimQueue struct {
	mu       sync.Mutex //denova:locks(nova.reclaim)
	ring     func()     // the daemon's doorbell; nil while no daemon runs
	blocks   []uint64
	batches  []reclaimBatch // one per handed-over extent, oldest first
	seq      uint64         // numbers the batches take hands out
	inflight []uint64       // seq of each taken batch not yet released
	released *sync.Cond     // broadcast whenever a taken batch is released; made by the first waiter

	queued   atomic.Int64 // len(blocks), for readers without mu
	deferred atomic.Int64 // blocks handed to the queue
	inline   atomic.Int64 // blocks step ⑤ released on its caller
}

type reclaimBatch struct {
	at time.Time
	n  int
}

// push queues blocks and rings the daemon. It reports false, queueing
// nothing, when no daemon runs or the blocks do not fit: backpressure, so a
// daemon that falls behind degrades to synchronous release instead of
// holding space back.
func (q *reclaimQueue) push(blocks []uint64) bool {
	q.mu.Lock()
	ring := q.ring
	if ring == nil || len(q.blocks)+len(blocks) > reclaimQueueCap {
		q.mu.Unlock()
		return false
	}
	q.blocks = append(q.blocks, blocks...)
	q.batches = append(q.batches, reclaimBatch{at: time.Now(), n: len(blocks)})
	q.queued.Store(int64(len(q.blocks)))
	q.mu.Unlock()
	q.deferred.Add(int64(len(blocks)))
	ring() // after publishing: the daemon re-checks queued under its doorbell lock
	return true
}

// take removes up to max of the oldest queued blocks (all when max <= 0) as
// one in-flight batch; the caller releases them and then calls done(seq).
func (q *reclaimQueue) take(max int) (blocks []uint64, seq uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.blocks)
	if max > 0 && n > max {
		n = max
	}
	if n == 0 {
		return nil, 0
	}
	blocks = slices.Clone(q.blocks[:n])
	q.blocks = append(q.blocks[:0], q.blocks[n:]...)
	gone := 0
	for rest := n; rest > 0; gone++ {
		if b := &q.batches[gone]; b.n > rest {
			b.n -= rest
			break
		}
		rest -= q.batches[gone].n
	}
	q.batches = append(q.batches[:0], q.batches[gone:]...)
	q.queued.Store(int64(len(q.blocks)))
	q.seq++
	q.inflight = append(q.inflight, q.seq)
	return blocks, q.seq
}

// done marks batch seq released.
func (q *reclaimQueue) done(seq uint64) {
	q.mu.Lock()
	q.inflight = slices.DeleteFunc(q.inflight, func(s uint64) bool { return s == seq })
	if q.released != nil {
		q.released.Broadcast()
	}
	q.mu.Unlock()
}

// waitTaken blocks until every batch taken before the call is released.
// Batches taken later do not hold it up, so a busy daemon cannot starve it.
func (q *reclaimQueue) waitTaken() {
	q.mu.Lock()
	defer q.mu.Unlock()
	limit := q.seq
	for slices.ContainsFunc(q.inflight, func(s uint64) bool { return s <= limit }) {
		if q.released == nil {
			q.released = sync.NewCond(&q.mu)
		}
		q.released.Wait()
	}
}

// DeferReclaim makes step ⑤ hand shadowed blocks to the reclaim queue and
// call ring, instead of releasing them on the caller, as long as they fit.
// The dedup daemon installs its doorbell while it runs and nil when it
// stops; with nil (and always without a releaser) step ⑤ releases
// synchronously. Blocks already queued stay queued until a drain.
func (fs *FS) DeferReclaim(ring func()) {
	fs.reclaim.mu.Lock()
	fs.reclaim.ring = ring
	fs.reclaim.mu.Unlock()
}

// ReclaimQueued reports how many blocks wait in the reclaim queue.
func (fs *FS) ReclaimQueued() int { return int(fs.reclaim.queued.Load()) }

// ServeReclaim releases up to max of the oldest queued blocks (all when
// max <= 0) through the releaser on the calling goroutine and returns how
// many it released. It takes no inode lock.
func (fs *FS) ServeReclaim(max int) int {
	blocks, seq := fs.reclaim.take(max)
	if blocks == nil {
		return 0
	}
	defer fs.reclaim.done(seq)
	fs.release(blocks)
	return len(blocks)
}

// DrainReclaim releases every queued block and waits for batches other
// goroutines took earlier, so every block handed to the queue before the
// call has been released when it returns; then it frees the free-pins'
// limbo. Fsck, unmount, the daemon's DrainSync and the scrubber call it; so
// does every allocation that would otherwise fail with ErrNoSpace.
func (fs *FS) DrainReclaim() {
	fs.ServeReclaim(0)
	fs.reclaim.waitTaken()
	fs.drainLimbo()
}

// allocBlocks is every data-block and log-page allocation: space held by
// the reclaim queue never fails one — on ErrNoSpace the queue is drained
// and the allocation retried once.
func (fs *FS) allocBlocks(ino uint64, n int64) (uint64, error) {
	b, err := fs.alloc.Alloc(int(ino), n)
	if err == nil {
		return b, nil
	}
	fs.DrainReclaim()
	return fs.alloc.Alloc(int(ino), n)
}

// release drops one reference from each block through the releaser, which
// frees what nothing else references, or frees them all without one.
func (fs *FS) release(blocks []uint64) {
	n := int64(len(blocks))
	atomic.AddInt64(&fs.blocksReleased, n)
	if fs.releaser == nil {
		for _, b := range blocks {
			fs.alloc.Free(b, 1)
		}
		atomic.AddInt64(&fs.blocksFreed, n)
		return
	}
	fs.releaser.Release(blocks, fs.freeFn)
}

// ReclaimStats describes the reclaim queue.
type ReclaimStats struct {
	Queued    int64         // blocks waiting for the daemon
	OldestAge time.Duration // time the oldest queued extent has waited; 0 when empty
	Deferred  int64         // blocks step ⑤ handed to the queue
	Inline    int64         // blocks step ⑤ released on its caller: no daemon, or the queue was full
}

// ReclaimStats returns a snapshot of the reclaim queue.
func (fs *FS) ReclaimStats() ReclaimStats {
	q := &fs.reclaim
	q.mu.Lock()
	var age time.Duration
	if len(q.batches) > 0 {
		age = time.Since(q.batches[0].at)
	}
	queued := int64(len(q.blocks))
	q.mu.Unlock()
	return ReclaimStats{Queued: queued, OldestAge: age, Deferred: q.deferred.Load(), Inline: q.inline.Load()}
}
