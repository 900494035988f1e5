package nova

import (
	"time"

	"denova/internal/obs"
)

// Observer carries the nova layer's pre-resolved metrics so operation paths
// never touch the registry map. Op-level histograms (Write/Read/Truncate/GC)
// are recorded whenever an observer is installed; the five write-path step
// histograms and per-step trace events are recorded only when Fine is set
// (obs.TraceFine), keeping the default foreground overhead to two clock
// reads and a few atomic adds per write.
type Observer struct {
	Tracer *obs.Tracer
	Fine   bool

	Write    *obs.Histogram // nova.write: full five-step write
	Read     *obs.Histogram // nova.read
	Truncate *obs.Histogram // nova.truncate
	GC       *obs.Histogram // nova.gc.thorough
	Stage    *obs.Histogram // nova.write.stage: DRAM staging (fast path)
	Relink   *obs.Histogram // nova.write.relink: batched relink commit

	WriteAlloc   *obs.Histogram // step ① (fine only)
	WriteFill    *obs.Histogram // step ② (fine only)
	WriteLog     *obs.Histogram // step ③ (fine only)
	WriteRadix   *obs.Histogram // step ④ (fine only)
	WriteReclaim *obs.Histogram // step ⑤ (fine only)

	RelinkAlloc   *obs.Histogram // relink block allocation (fine only)
	RelinkFill    *obs.Histogram // relink data drain to PM (fine only)
	RelinkLog     *obs.Histogram // relink batched log append+commit (fine only)
	RelinkInstall *obs.Histogram // relink radix install + reclaim (fine only)

	WriteBytes  *obs.Counter
	ReadBytes   *obs.Counter
	StagedBytes *obs.Counter
}

// NewObserver resolves the nova metric set from reg. tracer may be nil.
func NewObserver(reg *obs.Registry, tracer *obs.Tracer, fine bool) *Observer {
	return &Observer{
		Tracer:        tracer,
		Fine:          fine,
		Write:         reg.Histogram("nova.write"),
		Read:          reg.Histogram("nova.read"),
		Truncate:      reg.Histogram("nova.truncate"),
		GC:            reg.Histogram("nova.gc.thorough"),
		Stage:         reg.Histogram("nova.write.stage"),
		Relink:        reg.Histogram("nova.write.relink"),
		WriteAlloc:    reg.Histogram("nova.write.alloc"),
		WriteFill:     reg.Histogram("nova.write.fill"),
		WriteLog:      reg.Histogram("nova.write.log_commit"),
		WriteRadix:    reg.Histogram("nova.write.radix"),
		WriteReclaim:  reg.Histogram("nova.write.reclaim"),
		RelinkAlloc:   reg.Histogram("nova.write.relink.alloc"),
		RelinkFill:    reg.Histogram("nova.write.relink.fill"),
		RelinkLog:     reg.Histogram("nova.write.relink.log_commit"),
		RelinkInstall: reg.Histogram("nova.write.relink.install"),
		WriteBytes:    reg.Counter("nova.write.bytes"),
		ReadBytes:     reg.Counter("nova.read.bytes"),
		StagedBytes:   reg.Counter("nova.write.stage.bytes"),
	}
}

// SetObserver installs (or removes, with nil) the metrics observer. Call
// before the file system takes traffic; installation is not synchronized
// with in-flight operations.
func (fs *FS) SetObserver(o *Observer) { fs.obs = o }

// The steps of the extent commit (Fig. 1 ①–⑤), as opTimer indices.
const (
	stepAlloc = iota
	stepFill
	stepLog
	stepRadix
	stepReclaim
	numSteps
)

// opTimer is the nova layer's one step timer and span emitter. It times an
// operation as a child span of the caller's (or a fresh root for untraced
// callers) at the cost of two clock reads, and at the fine trace level also
// the steps inside it. The zero value — what beginOp returns with no
// observer installed — records nothing.
type opTimer struct {
	o           *Observer
	sc          obs.SpanContext // the operation's own span
	parent      uint64          // the caller's span id
	start, mark time.Time
	steps       [numSteps]time.Duration
}

func (fs *FS) beginOp(parent obs.SpanContext) opTimer {
	o := fs.obs
	if o == nil {
		return opTimer{}
	}
	now := time.Now()
	return opTimer{o: o, sc: o.Tracer.ChildOrRoot(parent, parent.Tenant), parent: parent.Span, start: now, mark: now}
}

// step charges the time since the previous step (or the start) to step s;
// a step taken once per extent accumulates.
func (t *opTimer) step(s int) {
	if t.o != nil && t.o.Fine {
		now := time.Now()
		t.steps[s] += now.Sub(t.mark)
		t.mark = now
	}
}

// end records the operation in its histogram and emits its span, and
// rewinds mark to the start, where emitStep begins laying out the steps.
// Callers guard it (and any emitStep after it) with t.o != nil.
func (t *opTimer) end(h *obs.Histogram, op obs.Op, ino, arg uint64) {
	d := time.Since(t.start)
	h.ObserveSpan(d, t.sc.Trace)
	t.o.Tracer.EmitSpan(op, t.sc, t.parent, ino, arg, t.start, d)
	t.mark = t.start
}

// emitStep records one step of d as a child span of the operation. Steps
// run back to back, so each starts where the previous one ended.
func (t *opTimer) emitStep(h *obs.Histogram, op obs.Op, ino, arg uint64, d time.Duration) {
	h.Observe(d)
	t.o.Tracer.EmitSpan(op, t.o.Tracer.StartChild(t.sc), t.sc.Span, ino, arg, t.mark, d)
	t.mark = t.mark.Add(d)
}
