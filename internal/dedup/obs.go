package dedup

import (
	"time"

	"denova/internal/obs"
)

// Observer carries the dedup layer's pre-resolved metrics. The daemon runs
// in the background, off the foreground write path, so the per-stage
// histograms are recorded whenever an observer is installed; per-stage
// trace events are emitted only at the fine level (op-level events always).
type Observer struct {
	Tracer *obs.Tracer
	Fine   bool

	Process     *obs.Histogram // dedup.process: one DWQ node end to end
	Revalidate  *obs.Histogram // dedup.stage.revalidate: node-vs-log validation
	Fingerprint *obs.Histogram // dedup.stage.fingerprint: read+hash+BeginTxn loop
	FactTxn     *obs.Histogram // dedup.stage.fact_txn: remap appends + tail commit + UC→RFC batch
	Remap       *obs.Histogram // dedup.stage.remap: radix remap + flag advance
	Batch       *obs.Histogram // dedup.batch: one worker batch
	QueueWait   *obs.Histogram // dedup.queue_wait: DWQ residence time
	Scrub       *obs.Histogram // dedup.scrub

	Enqueues    *obs.Counter // dedup.enqueued: write-hook enqueues
	PagesHinted *obs.Counter // dedup.pages_hinted: pages hashed from a relink's DRAM image, not read back
}

// NewObserver resolves the dedup metric set from reg. tracer may be nil.
func NewObserver(reg *obs.Registry, tracer *obs.Tracer, fine bool) *Observer {
	return &Observer{
		Tracer:      tracer,
		Fine:        fine,
		Process:     reg.Histogram("dedup.process"),
		Revalidate:  reg.Histogram("dedup.stage.revalidate"),
		Fingerprint: reg.Histogram("dedup.stage.fingerprint"),
		FactTxn:     reg.Histogram("dedup.stage.fact_txn"),
		Remap:       reg.Histogram("dedup.stage.remap"),
		Batch:       reg.Histogram("dedup.batch"),
		QueueWait:   reg.Histogram("dedup.queue_wait"),
		Scrub:       reg.Histogram("dedup.scrub"),
		Enqueues:    reg.Counter("dedup.enqueued"),
		PagesHinted: reg.Counter("dedup.pages_hinted"),
	}
}

// SetObserver installs (or removes, with nil) the metrics observer on the
// engine and rewires the DWQ linger hook so the queue-wait histogram and
// any user hook (SetLingerHook) both observe every dequeue.
func (e *Engine) SetObserver(o *Observer) {
	e.obs = o
	e.rewireLinger()
}

// SetLingerHook installs the user-facing queue-residence observer (the
// harness linger CDF), composing with the observability histogram rather
// than displacing it. Safe to call while the daemon is running (the DWQ
// publishes the hook atomically); nodes dequeued before the call are not
// observed, so set it before writes begin to see every one.
func (e *Engine) SetLingerHook(h func(d time.Duration)) {
	e.userLinger = h
	e.rewireLinger()
}

func (e *Engine) rewireLinger() {
	o, user := e.obs, e.userLinger
	if o == nil {
		e.dwq.SetLingerHook(user)
		return
	}
	e.dwq.SetLingerHook(func(d time.Duration) {
		o.QueueWait.Observe(d)
		if user != nil {
			user(d)
		}
	})
}

// Observer returns the engine's installed observer (nil when none).
func (e *Engine) Observer() *Observer { return e.obs }
