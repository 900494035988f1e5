package pmem

import (
	"sync/atomic"
	"time"
)

// LatencyProfile describes the media timing of a memory device. Durations
// of zero disable latency injection for that operation class; counters are
// kept regardless. The model has two components per operation class:
//
//   - a fixed access overhead charged once per device operation, modelling
//     media access latency (what Table I reports for reads), and
//   - a per-cache-line cost, modelling sustained media bandwidth.
//
// A random 64 B read on Optane then costs ~290 ns (within Table I's
// 150–350 ns) while a 4 KB sequential read costs ~2.8 µs (~1.4 GB/s),
// matching the published device behaviour far better than charging the
// access latency for every line of a bulk transfer would.
type LatencyProfile struct {
	// Name identifies the profile in reports (e.g. "optane-dcpm").
	Name string
	// ReadAccessOverhead is charged once per Read/Load64 call.
	ReadAccessOverhead time.Duration
	// ReadPerLine is charged for each 64 B cache line read from media.
	ReadPerLine time.Duration
	// WritePerLine is charged for each 64 B line persisted (flush or
	// non-temporal store). Cached stores are free (DRAM-speed write
	// buffering, the XPController behaviour the paper leans on).
	WritePerLine time.Duration
	// FlushOverhead is a fixed cost per Flush call (instruction issue).
	FlushOverhead time.Duration
	// FenceOverhead is a fixed cost per Fence call.
	FenceOverhead time.Duration
	// BandwidthSharing, when true, scales charged latency by the number of
	// goroutines concurrently inside a charged device operation, modelling
	// saturation of the device's internal bandwidth.
	BandwidthSharing bool
}

// Zero reports whether the profile injects no latency at all.
func (p LatencyProfile) Zero() bool {
	return p.ReadAccessOverhead == 0 && p.ReadPerLine == 0 && p.WritePerLine == 0 &&
		p.FlushOverhead == 0 && p.FenceOverhead == 0
}

// Canonical profiles, calibrated against Table I of the paper and the
// published Optane characterization (Yang et al., FAST '20): Optane random
// read latency 150–350 ns, write latency 60–100 ns hidden behind the write
// buffer, sequential write bandwidth ~1.8 GB/s per DIMM.
var (
	// ProfileZero injects no latency; used by unit tests.
	ProfileZero = LatencyProfile{Name: "zero"}

	// ProfileOptane approximates an Intel Optane DC PM module.
	ProfileOptane = LatencyProfile{
		Name:               "optane-dcpm",
		ReadAccessOverhead: 250 * time.Nanosecond,
		ReadPerLine:        40 * time.Nanosecond, // ~1.5 GB/s sustained
		WritePerLine:       35 * time.Nanosecond, // ~1.8 GB/s persists
		FlushOverhead:      20 * time.Nanosecond,
		FenceOverhead:      15 * time.Nanosecond,
		BandwidthSharing:   true,
	}

	// ProfileOptaneInterleaved has Optane media timings without the
	// bandwidth-sharing governor, modelling a namespace interleaved across
	// several DIMMs where each goroutine effectively drives its own device
	// queue. Scaling benches use it to isolate the software pipeline's
	// parallelism — with sharing enabled the device itself serializes the
	// pool and a bench would measure media saturation, not the worker pool.
	ProfileOptaneInterleaved = LatencyProfile{
		Name:               "optane-interleaved",
		ReadAccessOverhead: 250 * time.Nanosecond,
		ReadPerLine:        40 * time.Nanosecond,
		WritePerLine:       35 * time.Nanosecond,
		FlushOverhead:      20 * time.Nanosecond,
		FenceOverhead:      15 * time.Nanosecond,
	}

	// ProfileDRAM approximates DRAM (the paper's emulation substrate).
	ProfileDRAM = LatencyProfile{
		Name:               "dram",
		ReadAccessOverhead: 60 * time.Nanosecond,
		ReadPerLine:        5 * time.Nanosecond,
		WritePerLine:       5 * time.Nanosecond,
		FlushOverhead:      20 * time.Nanosecond,
		FenceOverhead:      15 * time.Nanosecond,
	}

	// ProfilePCM approximates phase-change memory (Table I row 2).
	ProfilePCM = LatencyProfile{
		Name:               "pcm",
		ReadAccessOverhead: 175 * time.Nanosecond,
		ReadPerLine:        60 * time.Nanosecond,
		WritePerLine:       500 * time.Nanosecond,
		FlushOverhead:      20 * time.Nanosecond,
		FenceOverhead:      15 * time.Nanosecond,
		BandwidthSharing:   true,
	}

	// ProfileSTTRAM approximates STT-RAM (Table I row 3).
	ProfileSTTRAM = LatencyProfile{
		Name:               "stt-ram",
		ReadAccessOverhead: 20 * time.Nanosecond,
		ReadPerLine:        5 * time.Nanosecond,
		WritePerLine:       30 * time.Nanosecond,
		FlushOverhead:      20 * time.Nanosecond,
		FenceOverhead:      15 * time.Nanosecond,
	}
)

// epoch anchors clock; time.Since on a monotonic reading is one clock read.
var epoch = time.Now()

// clock is the package's monotonic clock: the time since package init.
func clock() time.Duration { return time.Since(epoch) }

// clockRead is the host cost of one clock read, measured once at package
// init. The spin loop cannot resolve a wait shorter than this, and the call
// that owes it has already spent longer on its own bookkeeping, so such a
// wait is accounted in SimLatencyNs but not timed.
var clockRead = measureClockRead()

// measureClockRead takes the cheapest of a few batches of clock reads, so a
// preemption during one batch cannot inflate the threshold.
func measureClockRead() time.Duration {
	const batches, reads = 8, 256
	best := time.Duration(1<<63 - 1)
	for b := 0; b < batches; b++ {
		start := clock()
		for i := 0; i < reads; i++ {
			clock()
		}
		if per := (clock() - start) / reads; per < best {
			best = per
		}
	}
	return best
}

// charge is one device call's modelled media time, begun at the call's
// entry and ended by wait once the call's own work is done.
type charge struct {
	start    time.Duration // clock at entry; unset when the wait is not timed
	dur      time.Duration // modelled wait; 0 when it is not timed
	inflight *int32        // governor slot held until the deadline, or nil
}

// chargeClass begins a call's modelled media latency dur, optionally scaled
// by the number of concurrent accessors of the same class. Reads and writes
// saturate independently — Optane's read bandwidth is roughly 3× its write
// bandwidth and the two use separate internal queues, which is what lets
// DeNOVA's background daemon read and fingerprint pages without stealing
// foreground write bandwidth (§V-B1).
//
// The contract every charged call keeps: the call begins its charge on
// entry and waits at its end, so the copy, the counters and the locks
// overlap the modelled wait and the call takes max(host, modelled) wall
// time, not their sum. Counts and SimLatencyNs are exact; only a wait
// shorter than one clock read goes untimed. The governor counts the call as
// in flight from its entry to its deadline.
func (d *Device) chargeClass(dur time.Duration, inflight *int32) charge {
	if dur <= 0 {
		return charge{}
	}
	var c charge
	if d.prof.BandwidthSharing {
		n := atomic.AddInt32(inflight, 1)
		if n > 1 {
			dur *= time.Duration(n)
		}
		c.inflight = inflight
	}
	atomic.AddInt64(&d.stats.SimLatencyNs, int64(dur))
	if dur >= clockRead {
		c.start, c.dur = clock(), dur
	}
	return c
}

func (d *Device) chargeRead(dur time.Duration) charge  { return d.chargeClass(dur, &d.inflightR) }
func (d *Device) chargeWrite(dur time.Duration) charge { return d.chargeClass(dur, &d.inflightW) }

// wait ends a charge: it spins out whatever the call's own work left of the
// modelled wait, then releases the governor slot.
func (c charge) wait() {
	if c.dur > 0 {
		spinWait(c.start, c.dur)
	}
	if c.inflight != nil {
		atomic.AddInt32(c.inflight, -1)
	}
}

// spinWait waits until dur has passed since start, a clock reading taken
// at the call's entry; time the caller spent since then is not waited
// again. It deliberately avoids time.Sleep, whose granularity (≥ ~50 µs
// under most schedulers) is three orders of magnitude coarser than media
// latencies. It never yields: a device wait holds its processor to the
// deadline, as a load or a store stalled on the media holds its core. A
// yield inside the wait would be simulator host time, not modelled time,
// and would hand the caller's P to whichever goroutine the scheduler woke:
// on a 2-core host the dedup worker then takes a foreground appender's P
// at its next page-sized wait and holds it for a whole node. The dedup
// worker yields between batches instead. The cost: with fewer CPUs
// than busy goroutines, background compute overlaps foreground device waits
// only where Go's asynchronous preemption (every ~10 ms) moves it, not as
// it would across the paper's 40 cores.
func spinWait(start, dur time.Duration) {
	for clock()-start < dur {
	}
}
