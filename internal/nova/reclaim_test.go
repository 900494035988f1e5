package nova

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// freeAll is a releaser that frees every block it is handed.
func freeAll() *denyReleaser { return &denyReleaser{denied: map[uint64]bool{}} }

// TestReclaimDeferralRules pins when step ⑤ defers: only with a releaser,
// only while a doorbell is installed, and only while the batch fits —
// everything else is released on the caller and counted inline.
func TestReclaimDeferralRules(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name     string
		releaser bool
		ring     bool
		pages    int // of the deleted file
		deferred bool
	}{
		{name: "no releaser", ring: true, pages: 4},
		{name: "no daemon", releaser: true, pages: 4},
		{name: "fits", releaser: true, ring: true, pages: 4, deferred: true},
		{name: "queue full", releaser: true, ring: true, pages: reclaimQueueCap + 1},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var opts []Option
			if tc.releaser {
				opts = append(opts, WithReleaser(freeAll()))
			}
			_, fs := mkfsT(t, opts...)
			writeFileT(t, fs, "f", patternData(tc.pages*PageSize, 1))
			var rung atomic.Int64
			if tc.ring {
				fs.DeferReclaim(func() { rung.Add(1) })
			}
			free0 := fs.FreeBlocks()
			if err := fs.Delete("f"); err != nil {
				t.Fatal(err)
			}
			st := fs.ReclaimStats()
			n := int64(tc.pages)
			if tc.deferred {
				if st.Queued != n || st.Deferred != n || st.Inline != 0 || rung.Load() != 1 {
					t.Fatalf("deferred delete: %+v, %d rings; want %d queued and deferred, one ring", st, rung.Load(), n)
				}
				if got := fs.FreeBlocks(); got >= free0+n {
					t.Fatalf("free blocks %d -> %d: the queued blocks were freed", free0, got)
				}
				fs.DrainReclaim()
				st = fs.ReclaimStats()
			}
			if st.Queued != 0 || st.OldestAge != 0 || (!tc.deferred && (st.Deferred != 0 || st.Inline != n)) {
				t.Fatalf("%+v: want an empty queue and %d blocks released inline", st, n)
			}
			if err := fs.Fsck(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeferredReclaimENOSPC fills the device so the only free space is held
// in the reclaim queue: a write and a create must still succeed, because an
// allocation drains the queue before it reports ErrNoSpace.
func TestDeferredReclaimENOSPC(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t, WithReleaser(freeAll()))
	in := writeFileT(t, fs, "f", patternData(8*PageSize, 1))
	held := make(map[uint64]bool) // blocks the test keeps, for fsck
	for {
		b, err := fs.alloc.Alloc(0, 1)
		if err != nil {
			break
		}
		held[b] = true
	}
	fs.DeferReclaim(func() {})
	if err := fs.Truncate(in, 0, FlagNone); err != nil {
		t.Fatal(err)
	}
	if q, free := fs.ReclaimQueued(), fs.FreeBlocks(); q != 8 || free != 0 {
		t.Fatalf("%d blocks queued, %d free; want 8 and 0", q, free)
	}
	page := patternData(PageSize, 2)
	if _, err := fs.Write(in, 0, page, FlagNone); err != nil {
		t.Fatalf("write with the only free space queued: %v", err)
	}
	if _, err := fs.Create("g"); err != nil {
		t.Fatalf("create with the only free space queued: %v", err)
	}
	if q, free := fs.ReclaimQueued(), fs.FreeBlocks(); q != 0 || free != 6 {
		t.Fatalf("%d blocks queued, %d free; want 0 and 6 (8 drained, a data block and a log page taken)", q, free)
	}
	if got := readFileT(t, fs, in, 0, PageSize); string(got) != string(page) {
		t.Fatal("content mismatch after the drained write")
	}
	if err := fs.Fsck(func(b uint64) bool { return held[b] }); err != nil {
		t.Fatal(err)
	}
	// With the queue empty as well, the device is really full.
	for {
		b, err := fs.alloc.Alloc(0, 1)
		if err != nil {
			break
		}
		held[b] = true
	}
	if _, err := fs.Write(in, PageSize, page, FlagNone); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("write on a full device with an empty queue: err = %v, want ErrNoSpace", err)
	}
}

// TestPinnedReclaimENOSPC: blocks a free-pin holds in limbo are space an
// allocation may not fail for. The ENOSPC retry frees them whatever pins are
// held and breaks those pins, so they read nothing more.
func TestPinnedReclaimENOSPC(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t, WithReleaser(freeAll()))
	in := writeFileT(t, fs, "f", patternData(8*PageSize, 1))
	block, _, _ := in.Mapping(0)
	held := make(map[uint64]bool)
	for {
		b, err := fs.alloc.Alloc(0, 1)
		if err != nil {
			break
		}
		held[b] = true
	}
	in.mu.Lock()
	pin := fs.PinFrees()
	in.mu.Unlock()
	defer pin.Release()
	if err := fs.Truncate(in, 0, FlagNone); err != nil {
		t.Fatal(err)
	}
	if pins, limbo := fs.FreePins(); pins != 1 || limbo != 8 || fs.FreeBlocks() != 0 {
		t.Fatalf("%d pins, %d blocks in limbo, %d free; want 1, 8 and 0", pins, limbo, fs.FreeBlocks())
	}
	buf := make([]byte, PageSize)
	if !pin.ReadPinned(block, buf) || !bytes.Equal(buf, patternData(8*PageSize, 1)[:PageSize]) {
		t.Fatal("pinned read of a block in limbo did not return its bytes")
	}
	page := patternData(PageSize, 2)
	if _, err := fs.Write(in, 0, page, FlagNone); err != nil {
		t.Fatalf("write with the only free space in limbo: %v", err)
	}
	if pins, limbo := fs.FreePins(); pins != 1 || limbo != 0 || fs.FreeBlocks() != 7 {
		t.Fatalf("%d pins, %d blocks in limbo, %d free; want 1, 0 and 7", pins, limbo, fs.FreeBlocks())
	}
	if !pin.Broken() || pin.ReadPinned(block, buf) {
		t.Fatal("a pin whose limbo was freed still reads")
	}
	pin.Release()
	if pins, limbo := fs.FreePins(); pins != 0 || limbo != 0 {
		t.Fatalf("%d pins, %d blocks in limbo after release", pins, limbo)
	}
	if err := fs.Fsck(func(b uint64) bool { return held[b] }); err != nil {
		t.Fatal(err)
	}
}

// TestFreePinLimboOrder: a block leaves limbo once every pin taken before
// it was freed is released; a pin taken later does not hold it.
func TestFreePinLimboOrder(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t, WithReleaser(freeAll()))
	a := writeFileT(t, fs, "a", patternData(2*PageSize, 1))
	b := writeFileT(t, fs, "b", patternData(3*PageSize, 2))
	free0 := fs.FreeBlocks()
	first := fs.PinFrees()
	if err := fs.Truncate(a, 0, FlagNone); err != nil { // 2 blocks, held by first
		t.Fatal(err)
	}
	second := fs.PinFrees()
	if err := fs.Truncate(b, 0, FlagNone); err != nil { // 3 blocks, held by both
		t.Fatal(err)
	}
	if _, limbo := fs.FreePins(); limbo != 5 || fs.FreeBlocks() != free0 {
		t.Fatalf("%d blocks in limbo, %d free; want 5 and %d", limbo, fs.FreeBlocks(), free0)
	}
	first.Release()
	if _, limbo := fs.FreePins(); limbo != 3 || fs.FreeBlocks() != free0+2 {
		t.Fatalf("after the first release: %d blocks in limbo, %d free; want 3 and %d", limbo, fs.FreeBlocks(), free0+2)
	}
	first.Release() // a second release is a no-op
	second.Release()
	if pins, limbo := fs.FreePins(); pins != 0 || limbo != 0 || fs.FreeBlocks() != free0+5 {
		t.Fatalf("after both releases: %d pins, %d blocks in limbo, %d free", pins, limbo, fs.FreeBlocks())
	}
	if err := fs.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

// gateReleaser blocks every Release until the test opens the gate.
type gateReleaser struct {
	entered chan struct{}
	gate    chan struct{}
}

func (g *gateReleaser) Release(blocks []uint64, free func(block uint64)) {
	g.entered <- struct{}{}
	<-g.gate
	for _, b := range blocks {
		free(b)
	}
}

// TestDrainReclaimWaitsForTakenBatches: a drain must not return while a
// batch another goroutine took before it is still being released — that
// space is what the ENOSPC retry is waiting for.
func TestDrainReclaimWaitsForTakenBatches(t *testing.T) {
	t.Parallel()
	g := &gateReleaser{entered: make(chan struct{}), gate: make(chan struct{})}
	_, fs := mkfsT(t, WithReleaser(g))
	writeFileT(t, fs, "f", patternData(4*PageSize, 1))
	fs.DeferReclaim(func() {})
	if err := fs.Delete("f"); err != nil {
		t.Fatal(err)
	}
	served := make(chan int)
	go func() { served <- fs.ServeReclaim(0) }()
	<-g.entered // the batch is taken and its release has begun
	drained := make(chan struct{})
	go func() {
		fs.DrainReclaim()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("DrainReclaim returned while a taken batch was still being released")
	case <-time.After(20 * time.Millisecond):
	}
	close(g.gate)
	if n := <-served; n != 4 {
		t.Fatalf("ServeReclaim released %d blocks, want 4", n)
	}
	<-drained
	if err := fs.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}
