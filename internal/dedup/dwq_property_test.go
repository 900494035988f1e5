package dedup

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"denova/internal/pmem"
)

// TestDWQPropertyAgainstModel drives the queue with randomized
// Enqueue/DequeueBatch/Save/Restore sequences and checks it against a model
// map: no node is ever lost or duplicated, nodes leave in global enqueue
// order, Len tracks the model exactly, and Save/Restore round-trips the
// outstanding set — including the overflow path, which must persist exactly
// the oldest capacity-many nodes in global enqueue order.
func TestDWQPropertyAgainstModel(t *testing.T) {
	t.Parallel()
	const seeds = 8
	iters := 4000
	if raceEnabled {
		iters = 800
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(40900 + seed))
			dev := pmem.New(1<<20, pmem.ProfileZero)
			const savePages = 1 // capacity 255 → overflow is reachable
			capacity := (savePages*pmem.PageSize - dwqHdrSize) / dwqRecordSize

			q := NewDWQ()
			model := make(map[uint64]uint64) // entryOff (unique) -> ino
			var lastDeq uint64               // last dequeued entryOff
			var order []uint64               // entryOffs in global enqueue order
			nextOff := uint64(1)

			for i := 0; i < iters; i++ {
				switch op := rng.Intn(10); {
				case op < 5: // enqueue
					ino := uint64(1 + rng.Intn(6))
					model[nextOff] = ino
					order = append(order, nextOff)
					q.Enqueue(Node{Ino: ino, EntryOff: nextOff})
					nextOff++
				case op < 8: // dequeue a batch
					m := rng.Intn(8) // 0 = drain all
					for _, n := range q.DequeueBatch(m) {
						ino, ok := model[n.EntryOff]
						if !ok {
							t.Fatalf("dequeued node %d/%d not outstanding (lost/duplicated)", n.Ino, n.EntryOff)
						}
						if ino != n.Ino {
							t.Fatalf("node %d delivered with ino %d, enqueued with %d", n.EntryOff, n.Ino, ino)
						}
						if n.EntryOff <= lastDeq {
							t.Fatalf("FIFO violated: entry %d after %d", n.EntryOff, lastDeq)
						}
						lastDeq = n.EntryOff
						delete(model, n.EntryOff)
					}
				default: // save + restore into a fresh queue, swap it in
					saved, overflow := q.Save(dev, 0, savePages)
					wantOverflow := len(model) > capacity
					if overflow != wantOverflow {
						t.Fatalf("overflow=%v with %d outstanding (capacity %d)", overflow, len(model), capacity)
					}
					if overflow {
						// The snapshot must keep the oldest nodes; drop the
						// newest from the model like the flag-scan fallback
						// would re-find them.
						if saved != capacity {
							t.Fatalf("overflowing save kept %d nodes, want %d", saved, capacity)
						}
						outstanding := make([]uint64, 0, len(model))
						for _, off := range order {
							if _, ok := model[off]; ok {
								outstanding = append(outstanding, off)
							}
						}
						for _, off := range outstanding[capacity:] {
							delete(model, off)
						}
					} else if saved != len(model) {
						t.Fatalf("saved %d nodes, want %d", saved, len(model))
					}
					q2 := NewDWQ()
					n, err := q2.Restore(dev, 0, savePages)
					if err != nil {
						t.Fatal(err)
					}
					if n != saved {
						t.Fatalf("restored %d nodes, saved %d", n, saved)
					}
					q = q2
					// The snapshot is in enqueue order and Restore enqueues
					// it in that order, so FIFO order keeps holding.
				}
				if q.Len() != len(model) {
					t.Fatalf("Len = %d, model holds %d", q.Len(), len(model))
				}
			}

			for _, n := range q.DequeueBatch(0) {
				if _, ok := model[n.EntryOff]; !ok {
					t.Fatalf("final drain delivered unknown node %d", n.EntryOff)
				}
				delete(model, n.EntryOff)
			}
			if len(model) != 0 {
				t.Fatalf("%d nodes lost", len(model))
			}
		})
	}
}

// TestDWQDoorbellNoLostWakeup is the regression test for the doorbell
// semantics under multiple consumers: a worker must never sleep while a
// nonempty queue has no pending doorbell. An earlier queue used an
// edge-triggered capacity-1 channel, so a burst of enqueues collapsed into
// a single token; with several consumers parked and each taking only a
// small batch per wakeup (exactly this loop), nodes were stranded in the
// queue with every consumer asleep — this test deadlocks that design and
// trips the timeout. The condition-variable doorbell makes the loop live by
// construction: Wait returns immediately while the queue is nonempty.
func TestDWQDoorbellNoLostWakeup(t *testing.T) {
	t.Parallel()
	q := NewDWQ()
	const total = 5000
	const consumers = 4
	var consumed int64
	var stop int32
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for atomic.LoadInt32(&stop) == 0 {
				q.Wait(nil) // old code: <-q.Doorbell()
				if n := len(q.DequeueBatch(3)); n > 0 {
					if atomic.AddInt64(&consumed, int64(n)) == total {
						close(done)
					}
				}
			}
		}()
	}
	for p := 0; p < 4; p++ {
		go func(p int) {
			for i := 0; i < total/4; i++ {
				q.Enqueue(Node{Ino: uint64(1 + p), EntryOff: uint64(i + 1)})
			}
		}(p)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("consumers asleep with %d nodes queued and %d consumed (lost doorbell)",
			q.Len(), atomic.LoadInt64(&consumed))
	}
	// Shut the consumers down; keep waking until they all observe stop (a
	// consumer may re-enter Wait after any single WakeAll).
	atomic.StoreInt32(&stop, 1)
	exited := make(chan struct{})
	go func() {
		wg.Wait()
		close(exited)
	}()
	for {
		q.WakeAll()
		select {
		case <-exited:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// TestDWQRingNoLostWakeup is the doorbell test for work held outside the
// queue (the reclaim queue the daemon serves when the DWQ is empty):
// producers publish a unit and Ring, consumers park in Wait with a
// predicate over the published units. Every unit must be consumed with no
// consumer left asleep beside pending work.
func TestDWQRingNoLostWakeup(t *testing.T) {
	t.Parallel()
	q := NewDWQ()
	const total = 5000
	var pending, consumed atomic.Int64
	var stop atomic.Bool
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				q.Wait(func() bool { return pending.Load() > 0 })
				if n := pending.Load(); n > 0 && pending.CompareAndSwap(n, n-1) {
					if consumed.Add(1) == total {
						close(done)
					}
				}
			}
		}()
	}
	for p := 0; p < 4; p++ {
		go func() {
			for i := 0; i < total/4; i++ {
				pending.Add(1)
				q.Ring()
			}
		}()
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("consumers asleep with %d units pending and %d consumed (lost ring)", pending.Load(), consumed.Load())
	}
	stop.Store(true)
	exited := make(chan struct{})
	go func() {
		wg.Wait()
		close(exited)
	}()
	for {
		q.WakeAll()
		select {
		case <-exited:
			return
		case <-time.After(time.Millisecond):
		}
	}
}
