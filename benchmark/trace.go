package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"denova/internal/pmem"
	"denova/internal/workload"
)

// The traced pass records its spans here, in the benchmark's own files and
// around the calls into each layer. One goroutine owns the device (one
// client, no daemon, dedup only inside sync), so every device-counter delta
// belongs to exactly one span and all counts and modelled times depend on
// the inputs alone.

// span is one recorded interval. parent indexes the recorder's slice; -1
// marks a root. All spans of one op share its trace id, the op's index.
type span struct {
	trace  int32
	parent int32
	name   uint8
	start  int64 // ns since the pass began
	dur    int64 // ns
}

// Span names. A call span is named after its layer: denova.<kind> when the
// op is an in-process call, client.<kind> over the wire.
const (
	nameOp     = 0                       // op.<kind>: 0..6
	nameSync   = nameOp + numKinds       // root of a periodic sync
	nameGen    = nameSync + 1            // bench.gen
	nameVerify = nameGen + 1             // bench.verify
	nameCall   = nameVerify + 1          // <layer>.<kind>: 7 kinds, then sync/commit
	nameSim    = nameCall + numKinds + 1 // pmem.sim, synthetic
	numNames   = nameSim + 1
)

func spanNames(wire bool) [numNames]string {
	var n [numNames]string
	layer, sync := "denova.", "denova.sync"
	if wire {
		layer, sync = "client.", "client.commit"
	}
	for k, kind := range kindNames {
		n[nameOp+k] = "op." + kind
		n[nameCall+k] = layer + kind
	}
	n[nameSync], n[nameGen], n[nameVerify] = "sync", "bench.gen", "bench.verify"
	n[nameCall+numKinds], n[nameSim] = sync, "pmem.sim"
	return n
}

// recorder is a pre-allocated span log; it never grows while recording.
type recorder struct {
	spans []span
	epoch time.Time
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity), epoch: time.Now()}
}

func (r *recorder) add(trace, parent int32, name uint8, start time.Time, dur time.Duration) int32 {
	r.spans = append(r.spans, span{trace, parent, name, int64(start.Sub(r.epoch)), int64(dur)})
	return int32(len(r.spans) - 1)
}

// selfTimes returns, per span, its duration minus what its children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur
		if s.parent >= 0 {
			self[s.parent] -= s.dur
		}
	}
	return self
}

// devDelta is what one call cost at the device.
type devDelta struct {
	n                        int64 // calls
	simNs                    int64
	fences, flushed, ntLines int64
	wallNs                   int64
	pages                    int64 // sync only: user pages written since the previous sync
}

func (d *devDelta) add(before, after pmem.Stats, wall time.Duration) (simNs int64) {
	delta := after.Sub(before)
	d.n++
	d.simNs += delta.SimLatencyNs
	d.fences += delta.Fences
	d.flushed += delta.FlushedLines
	d.ntLines += delta.NTLines
	d.wallNs += int64(wall)
	return delta.SimLatencyNs
}

// tracedResult is what the serialised pass produced.
type tracedResult struct {
	wire     bool
	ops      int64
	spans    []span
	perKind  [numKinds]devDelta
	sync     devDelta
	codec    codecAcc
	callSum  time.Duration // sum of the op call spans
	coverage float64       // smallest share of a root span its children cover
	simOver  int64         // pmem.sim spans longer than their call span

	attempted, failed int64
	errs              []error
}

// tracedPass is step 6: a fresh device, the same trace from its start,
// replayed by one client with a sync every syncEvery ops.
func tracedPass(s *spec, o options) (*tracedResult, error) {
	prof := s.seeded(o.seed)
	paths := slotPaths(s)
	e, err := setup(s, paths, true, o.quick)
	if err != nil {
		return nil, err
	}
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	or := newOracle(s.keys(), s.maxFileBytes())
	r := newReplayer(s, prof, 0, 1, e.targets[0], newContent(prof), or)

	ops := int(o.seconds * float64(s.tracedOpsPerSec))
	if o.quick {
		ops /= quickDivisor
	}
	syncEvery := tracedSyncEvery
	if s.commitEvery > 0 {
		syncEvery = s.commitEvery
	}
	t := &tracedResult{wire: s.wire, ops: int64(ops)}
	rec := newRecorder(5*ops + 3*(ops/syncEvery+1))
	pagesSinceSync := int64(0)

	for i := 0; i < ops; i++ {
		id := int32(i)
		t0 := time.Now()
		op := r.next()
		r.prepare(op)
		before := e.dev.Stats()
		t1 := time.Now()
		r.call(op)
		t2 := time.Now()
		after := e.dev.Stats()
		r.check(op)
		t3 := time.Now()

		root := rec.add(id, -1, nameOp+uint8(op.Kind), t0, t3.Sub(t0))
		rec.add(id, root, nameGen, t0, t1.Sub(t0))
		call := rec.add(id, root, nameCall+uint8(op.Kind), t1, t2.Sub(t1))
		sim := t.perKind[op.Kind].add(before, after, t2.Sub(t1))
		rec.add(id, call, nameSim, t1, time.Duration(sim))
		rec.add(id, root, nameVerify, t2, t3.Sub(t2))
		t.callSum += t2.Sub(t1)

		if op.Kind == workload.OpWrite || op.Kind == workload.OpAppend {
			pagesSinceSync += (op.Size + chunk - 1) / chunk
		}
		if s.wire {
			var data []byte
			switch op.Kind {
			case workload.OpRead:
				data = r.got
			case workload.OpWrite, workload.OpAppend:
				data = r.wbuf[:op.Size]
			}
			if err := codecCost(&t.codec, op.Kind, paths[r.key(op)], op.Off, op.Size, data); err != nil {
				r.fail(fmt.Errorf("wire codec: %w", err))
			}
		}
		if (i+1)%syncEvery == 0 || i == ops-1 {
			before := e.dev.Stats()
			t0 := time.Now()
			err := r.tgt.sync()
			t1 := time.Now()
			after := e.dev.Stats()
			if err != nil {
				r.fail(fmt.Errorf("sync: %w", err))
			}
			root := rec.add(id, -1, nameSync, t0, t1.Sub(t0))
			call := rec.add(id, root, nameCall+numKinds, t0, t1.Sub(t0))
			sim := t.sync.add(before, after, t1.Sub(t0))
			rec.add(id, call, nameSim, t0, time.Duration(sim))
			t.sync.pages += pagesSinceSync
			pagesSinceSync = 0
		}
	}
	t.spans = rec.spans
	t.attempted = r.ops
	t.failed = r.failed
	if r.firstErr != nil {
		t.errs = append(t.errs, r.firstErr)
	}

	// The traced pass checks its end state too: a full read-back, then the
	// invariants of the image it leaves.
	buf := make([]byte, s.maxFileBytes())
	checked, bad, err := readBack(r.tgt, or, buf, func(int) bool { return true })
	t.attempted += checked + 1
	t.failed += bad
	if err != nil {
		t.errs = append(t.errs, err)
	}
	if err := e.fs.Fsck(); err != nil {
		t.failed++
		t.errs = append(t.errs, fmt.Errorf("fsck after the traced pass: %w", err))
	}

	t.coverage = 1
	self := selfTimes(t.spans)
	for i, sp := range t.spans {
		switch {
		case sp.parent < 0 && sp.dur > 0:
			t.coverage = min(t.coverage, 1-float64(self[i])/float64(sp.dur))
		case sp.name == nameSim && sp.dur > t.spans[sp.parent].dur:
			t.simOver++
		}
	}
	return t, nil
}

// nameStats is the per-name summary written to the span file.
type nameStats struct {
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
	P50Us   float64 `json:"p50_us"`
	P99Us   float64 `json:"p99_us"`
}

type spanOut struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// keptTraces is how many traces the span file carries verbatim.
const keptTraces = 1000

// writeSpans writes <dir>/spans_<workload>.json: a summary per span name
// and the first keptTraces traces in full.
func writeSpans(dir string, s *spec, o options, t *tracedResult) error {
	names := spanNames(t.wire)
	self := selfTimes(t.spans)
	durs := make(map[uint8][]int64)
	sum := make(map[string]*nameStats)
	for i, sp := range t.spans {
		st := sum[names[sp.name]]
		if st == nil {
			st = &nameStats{}
			sum[names[sp.name]] = st
		}
		st.Count++
		st.TotalUs += float64(sp.dur) / 1e3
		st.SelfUs += float64(self[i]) / 1e3
		durs[sp.name] = append(durs[sp.name], sp.dur)
	}
	for name, d := range durs {
		slices.Sort(d)
		sum[names[name]].P50Us = float64(quantile(d, 0.50)) / 1e3
		sum[names[name]].P99Us = float64(quantile(d, 0.99)) / 1e3
	}
	var traces [][]spanOut
	for _, sp := range t.spans {
		if sp.trace >= keptTraces {
			break
		}
		out := spanOut{Name: names[sp.name], StartNs: sp.start, DurNs: sp.dur}
		if sp.parent >= 0 {
			out.Parent = names[t.spans[sp.parent].name]
		}
		if sp.parent < 0 {
			traces = append(traces, nil)
		}
		traces[len(traces)-1] = append(traces[len(traces)-1], out)
	}
	doc := struct {
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		Ops      int64                 `json:"ops"`
		Note     string                `json:"note"`
		Names    map[string]*nameStats `json:"names"`
		Traces   [][]spanOut           `json:"traces"`
	}{s.name, o.seed, t.ops,
		"serialised pass: one client, no dedup daemon, queued dedup runs inside sync; pmem.sim is the modelled media time of its parent call",
		sum, traces}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans_"+s.name+".json"), b, 0o644)
}
