package denova

import (
	"io"

	"denova/internal/dedup"
	"denova/internal/fact"
	"denova/internal/nova"
	"denova/internal/obs"
)

// Observability surface. Every FS carries a metrics registry and an event
// tracer (internal/obs): op-level latency histograms are always recorded
// (a couple of clock reads and a few atomic adds per operation), while
// per-step breakdowns and trace events are gated by Config.Tracing.

// TraceLevel selects how much the event tracer records; see the constants.
type TraceLevel = obs.TraceLevel

// Trace levels for Config.Tracing.
const (
	// TraceOff records no events (histograms still work); emit cost is one
	// atomic load. The default.
	TraceOff = obs.TraceOff
	// TraceOps records one event per operation (write, read, dedup batch...).
	TraceOps = obs.TraceOps
	// TraceFine additionally records write-path step and dedup stage events
	// and enables the per-step latency histograms.
	TraceFine = obs.TraceFine
)

// TraceEvent is one tracer record.
type TraceEvent = obs.Event

// SpanContext identifies one span within one trace; the zero value means
// "untraced". Produced by Tracer().StartRoot/Adopt and accepted by the
// *Span file operations.
type SpanContext = obs.SpanContext

// SlowTrace is one captured slow-request span tree (see Config.
// SlowSpanThreshold).
type SlowTrace = obs.SlowTrace

// MetricsSnapshot is a stable point-in-time capture of every metric.
type MetricsSnapshot = obs.Snapshot

// initObs builds the registry and tracer and installs the per-layer
// observers. Called by Mkfs/Mount after the layers exist and before any
// traffic (including recovery reprocessing) runs.
func (f *FS) initObs() {
	f.reg = obs.NewRegistry()
	events := f.cfg.TraceEvents
	if events <= 0 {
		events = obs.DefaultTraceEvents
	}
	// One ring shard per dedup worker plus one for foreground ops keeps each
	// worker's event stream contiguous.
	shards := f.cfg.Workers + 1
	f.tracer = obs.NewTracer(f.cfg.Tracing, shards, events)
	fine := f.cfg.Tracing >= TraceFine
	f.fs.SetObserver(nova.NewObserver(f.reg, f.tracer, fine))
	if f.table != nil {
		f.table.SetObserver(fact.NewObserver(f.reg, f.tracer))
	}
	if f.engine != nil {
		f.engine.SetObserver(dedup.NewObserver(f.reg, f.tracer, fine))
	}
	// Tail-sampled slow-op capture: root spans over the threshold keep
	// their whole span tree. Requires the tracer to be on — with TraceOff
	// no spans exist to capture.
	if f.cfg.Tracing >= TraceOps && f.cfg.SlowSpanThreshold > 0 {
		cap := f.cfg.SlowSpanCapacity
		if cap <= 0 {
			cap = obs.DefaultSlowTraces
		}
		f.tracer.SetCapture(obs.NewSlowCapture(f.cfg.SlowSpanThreshold, cap))
	}
	// Freeze the ring when an injected crash fires, so the final pre-crash
	// events survive for a post-mortem dump (denovactl trace).
	tr := f.tracer
	f.dev.SetCrashHook(func() {
		tr.Emit(obs.OpCrash, 0, 0, 0)
		tr.Freeze()
	})
}

// feedRecovery mirrors the mount-time recovery timeline into the registry,
// making the PR-3 RecoveryInfo report one consumer of the shared metrics
// rather than a bespoke side channel.
func (f *FS) feedRecovery(info *RecoveryInfo) {
	h := f.reg.Histogram("recovery.pass")
	for _, p := range info.Passes {
		h.Observe(p.Wall)
		f.reg.SetCounter("recovery.pass."+p.Name+".wall_ns", p.Wall.Nanoseconds())
		f.reg.SetCounter("recovery.pass."+p.Name+".persisted_lines", p.Pmem.PersistedLines())
		f.tracer.Emit(obs.OpRecoveryPass, 0, uint64(p.Pmem.PersistedLines()), p.Wall)
	}
	f.reg.SetCounter("recovery.total_wall_ns", info.TotalWall().Nanoseconds())
}

// refreshRegistry mirrors the point-in-time counters maintained by the
// individual layers (pmem, nova, fact, dedup, queue, space) into the
// registry so one snapshot carries everything.
func (f *FS) refreshRegistry(st Stats) {
	r := f.reg
	d := st.Device
	r.SetCounter("pmem.read_lines", d.ReadLines)
	r.SetCounter("pmem.flushed_lines", d.FlushedLines)
	r.SetCounter("pmem.nt_lines", d.NTLines)
	r.SetCounter("pmem.fences", d.Fences)
	r.SetCounter("pmem.read_bytes", d.ReadBytes)
	r.SetCounter("pmem.written_bytes", d.WrittenBytes)
	r.SetCounter("pmem.sim_latency_ns", d.SimLatencyNs)

	r.SetCounter("nova.writes", st.FS.Writes)
	r.SetCounter("nova.reads", st.FS.Reads)
	r.SetCounter("nova.blocks_freed", st.FS.BlocksFreed)
	r.SetCounter("nova.blocks_skipped", st.FS.BlocksSkipped)
	r.SetCounter("nova.gc_log_pages", st.FS.GCLogPages)
	r.SetCounter("nova.gc_thorough_passes", st.FS.GCThorough)
	r.SetGauge("nova.free_blocks", st.FS.FreeBlocks)
	r.SetGauge("nova.reclaim.queued_blocks", st.FS.Reclaim.Queued)
	r.SetGauge("nova.reclaim.oldest_age_us", st.FS.Reclaim.OldestAge.Microseconds())
	r.SetCounter("nova.reclaim.deferred_blocks", st.FS.Reclaim.Deferred)
	r.SetCounter("nova.reclaim.inline_blocks", st.FS.Reclaim.Inline)

	r.SetGauge("space.logical_pages", st.Space.LogicalPages)
	r.SetGauge("space.physical_pages", st.Space.PhysicalPages)
	r.SetGauge("space.savings_bp", int64(st.Space.Savings()*10000)) // basis points

	if f.engine != nil {
		r.SetCounter("fact.lookups", st.Fact.Lookups)
		r.SetCounter("fact.walk_entries", st.Fact.WalkEntries)
		r.SetCounter("fact.dup_hits", st.Fact.DupHits)
		r.SetCounter("fact.inserts", st.Fact.Inserts)
		r.SetCounter("fact.commits", st.Fact.Commits)
		r.SetCounter("fact.decrefs", st.Fact.DecRefs)
		r.SetCounter("fact.removes", st.Fact.Removes)
		r.SetCounter("fact.reorders", st.Fact.Reorders)

		r.SetCounter("dedup.entries_processed", st.Dedup.EntriesProcessed)
		r.SetCounter("dedup.entries_skipped", st.Dedup.EntriesSkipped)
		r.SetCounter("dedup.pages_scanned", st.Dedup.PagesScanned)
		r.SetCounter("dedup.pages_duplicate", st.Dedup.PagesDuplicate)
		r.SetCounter("dedup.pages_unique", st.Dedup.PagesUnique)
		r.SetCounter("dedup.bytes_deduped", st.Dedup.BytesDeduped)

		r.SetGauge("dedup.queue.len", int64(st.Queue.Len))
		r.SetGauge("dedup.queue.peak", int64(st.Queue.Peak))
		r.SetCounter("dedup.queue.enqueued", st.Queue.Enqueued)
		r.SetCounter("dedup.queue.dequeued", st.Queue.Dequeued)
	}
	if len(st.Workers) > 0 {
		r.SetGauge("dedup.workers", int64(len(st.Workers)))
		var nodes, busy int64
		for _, w := range st.Workers {
			nodes += w.Nodes
			busy += w.BusyNs
		}
		r.SetCounter("dedup.worker_nodes", nodes)
		r.SetCounter("dedup.worker_busy_ns", busy)
	}
}

// Metrics gathers a complete metrics snapshot: the live latency histograms
// plus every layer counter mirrored in. Like Stats, it walks all file
// mappings (for the space figures), so call it between measurement phases,
// not inside them. The returned maps are owned by the caller.
func (f *FS) Metrics() MetricsSnapshot {
	f.refreshRegistry(f.Stats())
	return f.reg.Snapshot()
}

// MetricsJSON returns the metrics snapshot in its stable JSON encoding.
func (f *FS) MetricsJSON() ([]byte, error) { return f.Metrics().JSON() }

// Registry exposes the raw metrics registry (advanced consumers; the
// histograms in it are live).
func (f *FS) Registry() *obs.Registry { return f.reg }

// Tracer exposes the event tracer (nil never happens; with TraceOff the
// tracer is present but records nothing).
func (f *FS) Tracer() *obs.Tracer { return f.tracer }

// TraceEvents returns the most recent n trace events, oldest first (all
// buffered events when n <= 0).
func (f *FS) TraceEvents(n int) []TraceEvent { return f.tracer.Last(n) }

// SlowSpans returns the captured slow-request span trees, oldest first
// (nil unless Config.SlowSpanThreshold enabled capture). Each trace's
// spans are sorted by start time; a trace stays live in the ring and may
// still gain late async spans (dedup work) on a later call.
func (f *FS) SlowSpans() []SlowTrace {
	c := f.tracer.Capture()
	if c == nil {
		return nil
	}
	return c.Slow()
}

// WriteSlowTrace writes the captured slow span trees as Chrome trace-event
// JSON (load in chrome://tracing or Perfetto).
func (f *FS) WriteSlowTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, f.SlowSpans())
}

// ServeMetrics starts an HTTP endpoint on addr exporting /metrics
// (Prometheus text), /metrics.json, /trace?n=N, and /slow (Chrome
// trace-event JSON of the captured slow span trees). Use ":0" for an
// ephemeral port (the server's Addr reports the bound address). The caller
// closes the returned server.
func (f *FS) ServeMetrics(addr string) (*obs.Server, error) {
	return obs.Serve(addr, f.Metrics, f.tracer)
}
