package dedup

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"denova/internal/nova"
	"denova/internal/obs"
	"denova/internal/pmem"
)

// DaemonConfig is the (n, m) tuning of §IV-B2: the daemon wakes every
// Interval (n) and consumes at most Batch (m) DWQ nodes per wakeup. An
// Interval of zero selects DENOVA-Immediate: workers block on the DWQ
// doorbell and drain it as soon as anything is enqueued.
type DaemonConfig struct {
	Interval time.Duration // n: trigger period; 0 = immediate (aggressive polling)
	Batch    int           // m: nodes per trigger across all workers; <= 0 = unlimited
	// Scrub enables the periodic background FACT scrubber (§V-C2), every
	// ScrubEvery wakeups.
	ScrubEvery int
	// Workers is the number of concurrent dedup worker goroutines. <= 0
	// selects the default: GOMAXPROCS capped at 8.
	Workers int
}

// defaultMaxWorkers caps the default pool size; past a handful of workers
// the simulated device (bandwidth-shared) is the bottleneck, not SHA-1.
const defaultMaxWorkers = 8

// workerChunk is how many nodes one worker claims per dequeue in immediate
// mode: big enough to amortize the shard scan, small enough to share a
// burst across the pool.
const workerChunk = 32

func (cfg DaemonConfig) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	n := runtime.GOMAXPROCS(0)
	if n > defaultMaxWorkers {
		n = defaultMaxWorkers
	}
	if n < 1 {
		n = 1
	}
	return n
}

// WorkerStat is one worker's lifetime activity (the `denova stats`
// utilization report).
type WorkerStat struct {
	Batches int64 // DWQ batches serviced
	Nodes   int64 // nodes processed
	BusyNs  int64 // wall time spent inside batches
}

// Daemon is the deduplication daemon (DD) of §IV-B2, generalized from the
// paper's single thread to a pool of workers. Its two services are
// (i) draining the DWQ through Engine.ProcessEntry and (ii) reordering
// flagged FACT chains; both are safe to run concurrently because every
// dedup transaction is serialized per inode (nova inode lock) and per FACT
// chain (striped chain locks), and count-based consistency never depends on
// cross-entry ordering.
type Daemon struct {
	engine *Engine
	cfg    DaemonConfig

	stop chan struct{}
	wg   sync.WaitGroup

	// budget is the number of nodes the pool may still consume before the
	// next trigger (delayed mode only); workers claim chunks via CAS.
	budget int64

	// tickCond wakes budget-starved workers when a trigger refills it.
	tickMu   sync.Mutex //denova:locks(dedup.tick)
	tickCond *sync.Cond
	tickGen  uint64

	// busy counts workers holding (or about to dequeue) work. A worker
	// raises it BEFORE DequeueBatch, so busy == 0 && DWQ.Len() == 0 implies
	// no node is in flight.
	busy     int64
	idleMu   sync.Mutex //denova:locks(dedup.idle)
	idleCond *sync.Cond

	wakeups int64
	stats   []WorkerStat
}

// NewDaemon creates a daemon; call Start to launch it.
func NewDaemon(e *Engine, cfg DaemonConfig) *Daemon {
	d := &Daemon{engine: e, cfg: cfg, stop: make(chan struct{})}
	d.stats = make([]WorkerStat, cfg.workers())
	d.tickCond = sync.NewCond(&d.tickMu)
	d.idleCond = sync.NewCond(&d.idleMu)
	return d
}

// Workers returns the size of the worker pool.
func (d *Daemon) Workers() int { return len(d.stats) }

// Start launches the worker pool (and the trigger goroutine in delayed
// mode).
func (d *Daemon) Start() {
	if d.cfg.Interval > 0 {
		d.wg.Add(1)
		go d.ticker()
	}
	for i := range d.stats {
		d.wg.Add(1)
		go d.worker(i)
	}
}

// Stop terminates the pool and waits for it to exit. Queued work remains in
// the DWQ (it is persisted at unmount or rebuilt by recovery).
func (d *Daemon) Stop() {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	// Wake everyone parked on the doorbell or the tick condition so they
	// observe the closed stop channel — repeatedly, because a worker that
	// passed its stop check can enter Wait after a one-shot broadcast and
	// sleep through it (the DWQ doesn't know about the daemon's stop
	// state, so the wakeup must be re-issued until the pool is gone).
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	for {
		d.engine.DWQ().WakeAll()
		d.tickMu.Lock()
		d.tickGen++
		d.tickCond.Broadcast()
		d.tickMu.Unlock()
		select {
		case <-done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

func (d *Daemon) stopped() bool {
	select {
	case <-d.stop:
		return true
	default:
		return false
	}
}

// Wakeups reports how many times the daemon has been triggered: ticks in
// delayed mode, serviced batches in immediate mode.
func (d *Daemon) Wakeups() int64 { return atomic.LoadInt64(&d.wakeups) }

// WorkerStats returns a snapshot of per-worker activity.
func (d *Daemon) WorkerStats() []WorkerStat {
	out := make([]WorkerStat, len(d.stats))
	for i := range d.stats {
		out[i] = WorkerStat{
			Batches: atomic.LoadInt64(&d.stats[i].Batches),
			Nodes:   atomic.LoadInt64(&d.stats[i].Nodes),
			BusyNs:  atomic.LoadInt64(&d.stats[i].BusyNs),
		}
	}
	return out
}

// ticker is the delayed-mode trigger: every Interval it refills the node
// budget, wakes the pool, and periodically runs the scrubber.
func (d *Daemon) ticker() {
	defer d.wg.Done()
	defer d.recoverCrash()
	t := time.NewTicker(d.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			n := atomic.AddInt64(&d.wakeups, 1)
			limit := int64(d.cfg.Batch)
			if d.cfg.Batch <= 0 {
				limit = math.MaxInt64 / 2
			}
			atomic.StoreInt64(&d.budget, limit)
			d.tickMu.Lock()
			d.tickGen++
			d.tickCond.Broadcast()
			d.tickMu.Unlock()
			// Budget-starved workers that found the queue empty park on the
			// doorbell; wake them too so they re-claim budget.
			d.engine.DWQ().WakeAll()
			if d.cfg.ScrubEvery > 0 && n%int64(d.cfg.ScrubEvery) == 0 {
				d.engine.ScrubNow()
			}
		}
	}
}

// recoverCrash swallows an injected device crash: the goroutine dies in
// place like a CPU losing power, leaving crash-state analysis to the test
// harness. Any other panic propagates.
func (d *Daemon) recoverCrash() {
	if r := recover(); r != nil && r != pmem.ErrCrashInjected {
		panic(r)
	}
}

// claim reserves up to want nodes from the tick budget.
func (d *Daemon) claim(want int) int {
	for {
		b := atomic.LoadInt64(&d.budget)
		if b <= 0 {
			return 0
		}
		n := int64(want)
		if n > b {
			n = b
		}
		if atomic.CompareAndSwapInt64(&d.budget, b, b-n) {
			return int(n)
		}
	}
}

// unclaim returns unused budget.
func (d *Daemon) unclaim(n int) {
	if n > 0 {
		atomic.AddInt64(&d.budget, int64(n))
	}
}

// waitTick parks until the budget is refilled, the generation advances, or
// the daemon stops.
func (d *Daemon) waitTick() {
	d.tickMu.Lock()
	gen := d.tickGen
	for atomic.LoadInt64(&d.budget) <= 0 && d.tickGen == gen && !d.stopped() {
		d.tickCond.Wait()
	}
	d.tickMu.Unlock()
}

func (d *Daemon) beginBusy() { atomic.AddInt64(&d.busy, 1) }

func (d *Daemon) endBusy() {
	if atomic.AddInt64(&d.busy, -1) == 0 {
		d.idleMu.Lock()
		d.idleCond.Broadcast()
		d.idleMu.Unlock()
	}
}

// worker is one pool goroutine: claim budget (delayed mode), dequeue a
// batch, process it, repeat; park on the DWQ doorbell when idle.
func (d *Daemon) worker(id int) {
	defer d.wg.Done()
	defer d.recoverCrash()
	q := d.engine.DWQ()
	var sc Scratch
	for {
		if d.stopped() {
			return
		}
		want := workerChunk
		if d.cfg.Interval > 0 {
			want = d.claim(workerChunk)
			if want == 0 {
				d.waitTick()
				continue
			}
		}
		d.beginBusy()
		nodes := q.DequeueBatch(want)
		if len(nodes) == 0 {
			d.endBusy()
			if d.cfg.Interval > 0 {
				d.unclaim(want)
			}
			q.Wait()
			continue
		}
		if d.cfg.Interval > 0 && len(nodes) < want {
			d.unclaim(want - len(nodes))
		}
		d.service(id, nodes, &sc)
		if d.cfg.Interval == 0 {
			n := atomic.AddInt64(&d.wakeups, 1)
			if d.cfg.ScrubEvery > 0 && n%int64(d.cfg.ScrubEvery) == 0 {
				d.engine.ScrubNow()
			}
		}
	}
}

// service processes one batch under the engine's scrub-quiescing read lock
// and charges the worker's counters. endBusy runs deferred so an injected
// crash unwinding through ProcessEntry still releases the idle tracking.
func (d *Daemon) service(id int, nodes []Node, sc *Scratch) {
	defer d.endBusy()
	start := time.Now()
	defer func() {
		busy := time.Since(start)
		atomic.AddInt64(&d.stats[id].Batches, 1)
		atomic.AddInt64(&d.stats[id].Nodes, int64(len(nodes)))
		atomic.AddInt64(&d.stats[id].BusyNs, int64(busy))
		if o := d.engine.obs; o != nil {
			o.Batch.Observe(busy)
			// Keyed by worker id so each worker's event stream lands on its
			// own tracer shard (contiguous per-worker timelines).
			o.Tracer.EmitShard(id, obs.OpDedupBatch, uint64(id), uint64(len(nodes)), busy)
		}
	}()
	e := d.engine
	e.quiesce.RLock()
	defer e.quiesce.RUnlock()
	for _, node := range nodes {
		e.ProcessEntry(node, sc)
	}
	for _, prefix := range e.table.PendingReorders() {
		e.table.ReorderChain(prefix)
	}
}

// DrainSync processes the whole queue and waits until no worker holds any
// node. This is how Sync/unmount "give the DD plenty of time to finish the
// entire deduplication process" (§V-B4); the calling goroutine participates
// as an extra consumer, so it also works after Stop.
func (d *Daemon) DrainSync() {
	for {
		d.engine.Drain()
		d.waitBusyZero()
		if d.engine.DWQ().Len() == 0 && atomic.LoadInt64(&d.busy) == 0 {
			return
		}
	}
}

// WaitIdle blocks until the queue is empty and every worker is idle,
// without consuming nodes on the calling goroutine (the worker-scaling
// bench uses this so the pool alone does the draining).
func (d *Daemon) WaitIdle() {
	for {
		d.waitBusyZero()
		if d.engine.DWQ().Len() == 0 && atomic.LoadInt64(&d.busy) == 0 {
			return
		}
		// Nonempty queue with an idle pool: a woken worker is between its
		// doorbell and beginBusy (or the next tick hasn't fired). Yield.
		time.Sleep(100 * time.Microsecond)
	}
}

func (d *Daemon) waitBusyZero() {
	d.idleMu.Lock()
	for atomic.LoadInt64(&d.busy) != 0 {
		d.idleCond.Wait()
	}
	d.idleMu.Unlock()
}

// Drain synchronously processes the queue until it is empty. Used by
// unmount ("give the DD time to finish", §V-B4) and by tests. Safe to call
// concurrently with a running daemon — the caller simply acts as one more
// consumer against the same sharded queue.
func (e *Engine) Drain() int {
	n := 0
	var sc Scratch
	for {
		nodes := e.dwq.DequeueBatch(drainChunk)
		if len(nodes) == 0 {
			return n
		}
		func() {
			e.quiesce.RLock()
			defer e.quiesce.RUnlock()
			for _, node := range nodes {
				e.ProcessEntry(node, &sc)
				n++
			}
			for _, prefix := range e.table.PendingReorders() {
				e.table.ReorderChain(prefix)
			}
		}()
	}
}

// drainChunk bounds how long Drain holds the quiesce read lock at a time,
// so a concurrent scrubber is never starved.
const drainChunk = 256

// ScrubNow runs one FACT scrubber pass (§V-C2): it snapshots the set of
// data blocks referenced by any file's radix tree and invalidates FACT
// entries (and reclaims data pages) that no file uses — the mechanism that
// eventually repairs RFC over-increments left by crashes.
//
// Reference counts only grow through dedup transactions, so the pass takes
// the quiesce write lock to hold every dedup consumer (daemon workers,
// Drain, inline writes) at a batch boundary: a block unreferenced at
// snapshot time then stays unreferenced until the scrub is done.
func (e *Engine) ScrubNow() (dropped int) {
	if o := e.obs; o != nil {
		start := time.Now()
		defer func() {
			d := time.Since(start)
			o.Scrub.Observe(d)
			o.Tracer.Emit(obs.OpScrub, 0, uint64(dropped), d)
		}()
	}
	e.quiesce.Lock()
	defer e.quiesce.Unlock()
	inUse := make(map[uint64]bool)
	e.fs.WalkFiles(func(in *nova.Inode) {
		in.Lock()
		in.WalkMappingsLocked(func(pg, block, entryOff uint64) bool {
			inUse[block] = true
			return true
		})
		in.Unlock()
	})
	_, blocks := e.table.Scrub(func(b uint64) bool { return inUse[b] })
	for _, b := range blocks {
		// The entry held the block hostage (RFC over-increment); with the
		// entry gone the page returns to the free list.
		e.fs.Allocator().Free(b, 1)
	}
	return len(blocks)
}
