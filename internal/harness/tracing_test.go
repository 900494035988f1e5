package harness

import (
	"sort"
	"testing"
	"time"

	"denova/internal/nova"
	"denova/internal/obs"
	"denova/internal/pmem"
)

// TestTracingOffOverheadGate checks the observability acceptance gate: with
// tracing off, the always-on op-level instrumentation (two clock reads plus
// a few atomic adds per op) must stay within noise of a completely
// uninstrumented file system. The third variant additionally arms the
// slow-span capture, covering the span-instrumented build: every span
// helper on the write path must bail on TraceOff's single atomic load even
// when a capture is configured. All variants run the identical bare-NOVA
// write loop on a zero-latency device, interleaved across rounds so heap
// and CPU-boost drift spread evenly; medians are compared with a generous
// band because CI wall clocks are noisy.
func TestTracingOffOverheadGate(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock gate is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("wall-clock gate skipped in -short")
	}
	const (
		pages  = 2000
		rounds = 5

		bareFS          = iota - 2 // no observer at all
		traceOff                   // observer, TraceOff
		traceOffCapture            // observer, TraceOff, slow-span capture armed
	)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	run := func(variant int) time.Duration {
		dev := pmem.New(64<<20, pmem.ProfileZero)
		nfs, err := nova.Mkfs(dev, 64)
		if err != nil {
			t.Fatal(err)
		}
		if variant != bareFS {
			reg := obs.NewRegistry()
			tracer := obs.NewTracer(obs.TraceOff, 1, obs.DefaultTraceEvents)
			if variant == traceOffCapture {
				tracer.SetCapture(obs.NewSlowCapture(time.Millisecond, 8))
			}
			nfs.SetObserver(nova.NewObserver(reg, tracer, false))
		}
		in, err := nfs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < pages; i++ {
			if _, err := nfs.Write(in, uint64(i%256)*4096, data, nova.FlagNone, obs.SpanContext{}); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	run(traceOff) // warmup
	var bare, off, cap []time.Duration
	for r := 0; r < rounds; r++ {
		bare = append(bare, run(bareFS))
		off = append(off, run(traceOff))
		cap = append(cap, run(traceOffCapture))
	}
	// Best of the rounds, not their median: interference from a parallel
	// `go test ./...` only ever adds time, so the minimum is the estimate of
	// each variant's own cost that a busy box cannot inflate. The 1.5x band
	// is unchanged.
	best := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[0]
	}
	mb, mo, mc := best(bare), best(off), best(cap)
	t.Logf("bare best %v, TraceOff best %v (%.1f%%), TraceOff+capture best %v (%.1f%%)",
		mb, mo, float64(mo-mb)/float64(mb)*100, mc, float64(mc-mb)/float64(mb)*100)
	if mo > mb*3/2 {
		t.Errorf("TraceOff instrumentation overhead out of noise band: bare %v vs instrumented %v", mb, mo)
	}
	if mc > mb*3/2 {
		t.Errorf("TraceOff span+capture overhead out of noise band: bare %v vs span-instrumented %v", mb, mc)
	}
}
