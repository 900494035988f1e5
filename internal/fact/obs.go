package fact

import (
	"time"

	"denova/internal/obs"
)

// Observer carries the FACT layer's pre-resolved metrics. Latencies are
// recorded on the transaction-protocol entry points (BeginTxn,
// CommitTxnBatch, DecRefBatch); the cheap single-word ops (CommitTxn,
// AbortTxn) stay untimed — they are one CAS plus a flush, and the activity
// counters in Stats already cover them. fact.decref keeps one sample per
// block, not per batch — each block is charged the batch's wall time divided
// by its size — so its count and mean stay comparable across batch sizes.
type Observer struct {
	Tracer *obs.Tracer

	Begin       *obs.Histogram // fact.begin_txn
	CommitBatch *obs.Histogram // fact.commit_batch (whole batch, one fence)
	DecRef      *obs.Histogram // fact.decref (one sample per block released)
}

// NewObserver resolves the FACT metric set from reg. tracer may be nil.
func NewObserver(reg *obs.Registry, tracer *obs.Tracer) *Observer {
	return &Observer{
		Tracer:      tracer,
		Begin:       reg.Histogram("fact.begin_txn"),
		CommitBatch: reg.Histogram("fact.commit_batch"),
		DecRef:      reg.Histogram("fact.decref"),
	}
}

// SetObserver installs (or removes, with nil) the metrics observer. Call
// before the table takes traffic.
func (t *Table) SetObserver(o *Observer) { t.obs = o }

// observe is the shared timing epilogue; d is zero when no observer is
// installed (the caller skips the clock read entirely then).
func (o *Observer) observe(h *obs.Histogram, op obs.Op, key uint64, d time.Duration) {
	h.Observe(d)
	o.Tracer.Emit(op, key, 0, d)
}
