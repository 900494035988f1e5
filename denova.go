// Package denova is a from-scratch reproduction of "DeNOVA: Deduplication
// Extended NOVA File System" (Kwon et al., IPPS 2022): a log-structured
// NVM file system in the style of NOVA, extended with DeNOVA's offline
// deduplication — a DRAM-free persistent metadata table (FACT), a
// deduplication work queue drained by a background daemon, and count-based
// crash consistency.
//
// The persistent-memory device is simulated (see internal/pmem): stores
// become durable at cache-line granularity through explicit flushes, media
// latencies are modelled on Intel Optane DC PM, and crashes can be injected
// at any persist point.
//
// Quick start:
//
//	dev := denova.NewDevice(1<<30, denova.ProfileOptane)
//	fs, err := denova.Mkfs(dev, denova.Config{Mode: denova.ModeImmediate})
//	f, err := fs.Create("hello")
//	f.WriteAt(data, 0)
//	fs.Sync()            // wait for background dedup to drain
//	st := fs.Stats()     // space savings, FACT counters, device counters
//	fs.Unmount()
package denova

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"denova/internal/dedup"
	"denova/internal/fact"
	"denova/internal/nova"
	"denova/internal/obs"
	"denova/internal/pmem"
)

// Device is the simulated persistent-memory device file systems live on.
type Device = pmem.Device

// LatencyProfile describes media timing; see the predefined profiles.
type LatencyProfile = pmem.LatencyProfile

// Predefined device latency profiles (Table I of the paper).
var (
	ProfileZero   = pmem.ProfileZero   // no injected latency (unit tests)
	ProfileOptane = pmem.ProfileOptane // Intel Optane DC PM
	ProfileDRAM   = pmem.ProfileDRAM   // DRAM (the paper's emulation host)
	ProfilePCM    = pmem.ProfilePCM    // phase-change memory
	ProfileSTTRAM = pmem.ProfileSTTRAM // STT-RAM
)

// NewDevice creates a zeroed simulated PM device of the given size.
func NewDevice(size int64, prof LatencyProfile) *Device { return pmem.New(size, prof) }

// Mode selects the deduplication strategy, matching the models evaluated
// in §V-A.
type Mode int

const (
	// ModeNone is baseline NOVA: no deduplication at all.
	ModeNone Mode = iota
	// ModeInline performs the whole dedup pipeline in the write path
	// (the DENOVA-Inline baseline, NV-Dedup methodology).
	ModeInline
	// ModeImmediate runs the dedup daemon with aggressive polling (n=0):
	// entries are deduplicated as soon as they are enqueued.
	ModeImmediate
	// ModeDelayed runs the daemon every Config.DelayInterval, consuming at
	// most Config.DelayBatch entries per trigger — DENOVA-Delayed(n, m).
	ModeDelayed
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "nova-baseline"
	case ModeInline:
		return "denova-inline"
	case ModeImmediate:
		return "denova-immediate"
	case ModeDelayed:
		return "denova-delayed"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode maps a command-line mode name — none, inline, immediate or
// delayed — to its Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "none":
		return ModeNone, nil
	case "inline":
		return ModeInline, nil
	case "immediate":
		return ModeImmediate, nil
	case "delayed":
		return ModeDelayed, nil
	}
	return 0, fmt.Errorf("unknown mode %q: %w", s, ErrInvalid)
}

// Config tunes a file-system instance.
type Config struct {
	// Mode selects the deduplication strategy. Default ModeNone.
	Mode Mode
	// DelayInterval and DelayBatch are the daemon's (n, m) in ModeDelayed.
	DelayInterval time.Duration
	DelayBatch    int
	// MaxInodes bounds the inode table (default 4096).
	MaxInodes int64
	// ScrubEvery runs the background FACT scrubber every N daemon wakeups
	// (0 = never; scrubbing also runs explicitly via ScrubNow).
	ScrubEvery int
	// Workers sets the worker-pool size of the dedup daemon (offline
	// modes) and of mount-time recovery. <= 0 selects the default:
	// GOMAXPROCS, capped at 8. Each dedup worker drains DWQ batches,
	// fingerprints pages, and commits FACT transactions concurrently;
	// crash consistency holds under any interleaving (see DESIGN.md
	// "Parallel dedup").
	Workers int
	// NoDaemon suppresses the background daemon for the offline modes:
	// queued work runs only when Sync is called, on the caller's
	// goroutine. Crash-injection harnesses need this so an injected panic
	// unwinds through the caller's recover.
	NoDaemon bool
	// Tracing selects the event-tracer level (TraceOff, TraceOps,
	// TraceFine). Latency histograms are always on; TraceFine additionally
	// records per-step write-path and dedup-stage breakdowns. Default
	// TraceOff.
	Tracing TraceLevel
	// TraceEvents is the total trace ring capacity in events (default 8192).
	// Oldest events are overwritten when the ring wraps.
	TraceEvents int
	// SlowSpanThreshold enables tail-sampled slow-op capture when > 0 and
	// Tracing is at least TraceOps: any root span (a served request, or a
	// locally-rooted FS op) whose duration reaches the threshold has its
	// complete span tree retained in a bounded ring (see FS.SlowSpans and
	// denovactl slow). Zero disables capture.
	SlowSpanThreshold time.Duration
	// SlowSpanCapacity bounds the slow-trace ring (default 64). Oldest
	// captured traces are evicted FIFO.
	SlowSpanCapacity int
	// Staging tunes the SplitFS-style split write path. The zero value
	// disables it: every WriteAt runs the five-step CoW slow path.
	Staging StagingConfig
}

// StagingConfig enables the DRAM staging fast path: writes accumulate in
// per-file page images and become durable through a single batched relink
// commit (one contiguous allocation per extent, one write entry per
// extent, ONE fence per batch) instead of one log commit per write.
// Staged bytes are volatile until File.Sync, FS.Sync, an automatic
// MaxPages/MaxDelay flush, or a metadata operation (truncate, GC, unmount)
// quiesces them; a crash before that loses exactly the unsynced writes and
// never corrupts the log. Ignored in ModeInline (inline dedup needs the
// write path synchronous).
type StagingConfig struct {
	// MaxPages > 0 enables staging; a file whose staged page count reaches
	// MaxPages is relinked automatically on the writer's goroutine.
	MaxPages int
	// MaxDelay bounds staged data's crash exposure: when > 0, a background
	// flusher relinks every dirty file at least this often.
	MaxDelay time.Duration
}

func (c *Config) fill() {
	if c.MaxInodes == 0 {
		c.MaxInodes = 4096
	}
	c.Workers = resolveWorkers(c.Workers)
	if c.Mode == ModeDelayed {
		if c.DelayInterval <= 0 {
			c.DelayInterval = 750 * time.Millisecond
		}
		if c.DelayBatch == 0 {
			c.DelayBatch = 20000
		}
	}
}

// FS is a mounted DeNOVA file system.
type FS struct {
	dev    *Device
	cfg    Config
	fs     *nova.FS
	table  *fact.Table
	engine *dedup.Engine
	daemon *dedup.Daemon

	reg    *obs.Registry // metrics registry (always present)
	tracer *obs.Tracer   // event tracer (level per Config.Tracing)

	stopFlush chan struct{}  // staging flusher shutdown (nil = no flusher)
	flushWG   sync.WaitGroup // joins the flusher goroutine

	recovery *RecoveryInfo // report of the mount that produced this FS
}

// stagingOn reports whether the split write path is active.
func (f *FS) stagingOn() bool {
	return f.cfg.Staging.MaxPages > 0 && f.cfg.Mode != ModeInline
}

// startFlusher launches the MaxDelay staging flusher when configured.
func (f *FS) startFlusher() {
	if !f.stagingOn() || f.cfg.Staging.MaxDelay <= 0 {
		return
	}
	f.stopFlush = make(chan struct{})
	f.flushWG.Add(1)
	go func() {
		defer f.flushWG.Done()
		t := time.NewTicker(f.cfg.Staging.MaxDelay)
		defer t.Stop()
		for {
			select {
			case <-f.stopFlush:
				return
			case <-t.C:
				// Best effort: ENOSPC here resolves at the next explicit
				// Sync/Unmount, which do surface it.
				_ = f.fs.RelinkAll()
			}
		}
	}()
}

// stopFlusher joins the staging flusher; safe to call twice.
func (f *FS) stopFlusher() {
	if f.stopFlush != nil {
		close(f.stopFlush)
		f.flushWG.Wait()
		f.stopFlush = nil
	}
}

// Recovery returns the mount-time recovery report, or nil for a freshly
// formatted (Mkfs) file system.
func (f *FS) Recovery() *RecoveryInfo { return f.recovery }

// Mkfs formats the device and mounts a fresh file system.
func Mkfs(dev *Device, cfg Config) (*FS, error) {
	cfg.fill()
	nfs, err := nova.Mkfs(dev, cfg.MaxInodes)
	if err != nil {
		return nil, err
	}
	f := &FS{dev: dev, cfg: cfg, fs: nfs}
	// The FACT region is always initialized (prev/next/delete pointers to
	// None), even in ModeNone — the region is reserved by the geometry
	// regardless, and later mounts in a dedup mode expect a valid table.
	table := fact.New(dev, factConfig(nfs.Geo))
	table.ZeroFill()
	if cfg.Mode != ModeNone {
		f.table = table
		f.engine = dedup.NewEngine(nfs, f.table)
	}
	f.initObs()
	if cfg.Mode != ModeNone {
		f.wireMode()
	}
	f.startFlusher()
	return f, nil
}

// RecoveryPass records the cost of one mount/recovery pass: its wall-clock
// time and the device access counters it consumed.
type RecoveryPass = nova.RecoveryPass

// RecoveryInfo reports what mount-time recovery found and repaired.
type RecoveryInfo struct {
	// Clean is true when the device was cleanly unmounted.
	Clean bool
	// Workers is the resolved recovery pool size the mount ran with.
	Workers int
	// Orphans lists inode numbers reclaimed by the namespace scan,
	// ascending.
	Orphans []uint64
	// RepairsPersisted counts dangling-dentry prunings committed to
	// directory logs during the mount.
	RepairsPersisted int
	// DentryCorrupt counts structurally invalid dentry records skipped
	// (and surfaced) by the directory replay.
	DentryCorrupt int
	// GCPages counts dead file log pages reclaimed by the end-of-mount
	// fast-GC sweep.
	GCPages int
	// Passes is the full mount timeline: the nova passes (inode-scan,
	// namespace, log-replay, alloc-rebuild, repairs, log-gc) followed by
	// the dedup recovery passes (fact-chains, dedup-resume, fact-sweep,
	// dwq-rebuild); a ModeNone mount follows the nova passes with
	// fact-chains alone.
	Passes []RecoveryPass
	// Dedup carries the §V-C dedup recovery report (zero value for
	// ModeNone).
	Dedup dedup.RecoveryReport
}

// TotalWall sums the wall-clock time of all recorded passes.
func (r *RecoveryInfo) TotalWall() time.Duration {
	var d time.Duration
	for _, p := range r.Passes {
		d += p.Wall
	}
	return d
}

// Mount opens a previously formatted device. The Config must use a dedup
// mode compatible with the on-device state: a device that has ever
// deduplicated cannot be mounted with ModeNone (shared pages would be
// freed while still referenced).
func Mount(dev *Device, cfg Config) (*FS, *RecoveryInfo, error) {
	cfg.fill()
	nfs, scan, err := nova.Mount(dev, nova.WithMountWorkers(cfg.Workers))
	if err != nil {
		return nil, nil, err
	}
	f := &FS{dev: dev, cfg: cfg, fs: nfs}
	info := &RecoveryInfo{
		Clean:            scan.Clean,
		Workers:          cfg.Workers,
		Orphans:          scan.Orphans,
		RepairsPersisted: scan.RepairsPersisted,
		DentryCorrupt:    scan.DentryCorrupt,
		GCPages:          scan.GCPages,
		Passes:           scan.Passes,
	}
	table := fact.Attach(dev, factConfig(nfs.Geo))
	table.RecoveryWorkers = cfg.Workers
	if cfg.Mode == ModeNone {
		// The chain walk alone finds every live entry; the table's other
		// repairs wait for the next dedup-mode mount.
		var empty bool
		_ = nova.TimePass(dev, &info.Passes, "fact-chains", func() error {
			empty = table.WalkChains().Empty()
			return nil
		})
		if !empty {
			return nil, nil, fmt.Errorf("denova: device holds deduplicated data; mount with a dedup mode, not ModeNone")
		}
		f.initObs()
		f.feedRecovery(info)
		f.recovery = info
		f.startFlusher()
		return f, info, nil
	}
	f.table = table
	f.engine = dedup.NewEngine(nfs, f.table)
	f.initObs()
	if info.Dedup, err = dedup.Recover(f.engine, scan); err != nil {
		return nil, nil, err
	}
	info.Passes = append(info.Passes, info.Dedup.Passes...)
	f.feedRecovery(info)
	f.recovery = info
	f.wireMode()
	f.startFlusher()
	return f, info, nil
}

// resolveWorkers is the one pool-size rule (Config.Workers): <= 0 selects
// GOMAXPROCS capped at 8 — past a handful of workers the simulated device
// (bandwidth-shared) is the bottleneck, not SHA-1.
func resolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	n = runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	return n
}

func factConfig(g nova.Geometry) fact.Config {
	return fact.Config{
		Base:       g.FactOff,
		PrefixBits: g.FactPrefixBits,
		DataStart:  g.DataStartBlock,
		NumData:    g.NumDataBlocks,
	}
}

// wireMode starts the daemon for the offline modes. Inline mode keeps the
// engine as releaser but neither enqueues nor runs a daemon.
func (f *FS) wireMode() {
	if f.cfg.Mode == ModeInline {
		f.fs.SetWriteHook(nil) // inline writes never enter the DWQ
		return
	}
	if f.cfg.NoDaemon {
		return
	}
	dc := dedup.DaemonConfig{ScrubEvery: f.cfg.ScrubEvery, Workers: f.cfg.Workers}
	if f.cfg.Mode == ModeDelayed {
		dc.Interval, dc.Batch = f.cfg.DelayInterval, f.cfg.DelayBatch
	}
	f.daemon = dedup.NewDaemon(f.engine, dc)
	f.daemon.Start()
}

// Mode returns the configured deduplication mode.
func (f *FS) Mode() Mode { return f.cfg.Mode }

// Device returns the underlying PM device.
func (f *FS) Device() *Device { return f.dev }

// Sync makes every staged write durable (one batched relink commit per
// dirty file) and then blocks until the deduplication queue is fully
// drained (the dedup half is a no-op for ModeNone/ModeInline). A relink
// failure (ENOSPC) leaves the affected staging buffers intact; use
// File.Sync to surface it per file.
func (f *FS) Sync() {
	if f.stagingOn() {
		_ = f.fs.RelinkAll()
	}
	if f.daemon != nil {
		f.daemon.DrainSync()
	} else if f.engine != nil {
		f.engine.Drain()
	}
}

// ScrubNow runs one FACT scrubber pass synchronously (the §V-C2 background
// service). Safe at any time: the pass quiesces the daemon's worker pool
// (and any inline writers) at a batch boundary for its duration.
func (f *FS) ScrubNow() int {
	if f.engine == nil {
		return 0
	}
	return f.engine.ScrubNow()
}

// ForceGC runs one thorough garbage-collection pass over the named file's
// log and returns the number of pages reclaimed. Concurrency-safe against
// writers and the dedup daemon; chaos harnesses use it to force log GC into
// the middle of a live workload.
func (f *FS) ForceGC(name string) (int, error) {
	in, err := f.fs.Lookup(name)
	if err != nil {
		return 0, err
	}
	return f.fs.ForceThoroughGC(in), nil
}

// SetLingerHook observes each DWQ node's queue residence time (Fig. 10).
// Safe while the daemon runs; set it before writes begin to see every
// node. The hook composes with the metrics queue-wait histogram; both
// observe every dequeue.
func (f *FS) SetLingerHook(h func(time.Duration)) {
	if f.engine != nil {
		f.engine.SetLingerHook(h)
	}
}

// Unmount stops the daemon and the staging flusher, relinks any staged
// data, persists the DWQ snapshot, flushes inode summaries, and marks the
// superblock clean.
func (f *FS) Unmount() error {
	f.stopFlusher()
	if f.daemon != nil {
		f.daemon.Stop()
		f.daemon = nil
	}
	if f.engine != nil && f.cfg.Mode != ModeInline {
		dedup.SaveDWQ(f.engine)
	}
	return f.fs.Unmount()
}

// UnmountDirty simulates pulling the plug without any of the clean-
// shutdown work (for recovery tests): it only stops the daemon and
// flusher goroutines. Staged DRAM data and the reclaim queue are dropped,
// exactly as a real crash would drop them; a dropped decrement leaves an
// RFC over-count that the mount-time scrub repairs.
func (f *FS) UnmountDirty() {
	f.stopFlusher()
	if f.daemon != nil {
		f.daemon.Stop()
		f.daemon = nil
	}
}
