package harness

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"denova"
	"denova/internal/obs"
	"denova/internal/pmem"
	"denova/internal/server"
	"denova/internal/server/client"
	"denova/internal/server/wire"
	"denova/internal/workload"
)

// TestTraceE2EOverServer is the end-to-end tracing gate (run under -race
// by the CI observability job): a multitenant profile replays over
// loopback with wire trace-context propagation on, one write is made
// artificially slow inside the server's execution window, and the test
// asserts that (a) the serve.op.write p99 latency exemplar resolves to a
// trace id, (b) the slow-op capture holds that request's complete span
// tree — client call, server admission/queue/exec/reply, the nova write,
// and the async dedup work it enqueued — and (c) the whole tree is
// attributed to the right tenant.
func TestTraceE2EOverServer(t *testing.T) {
	t.Parallel()
	const (
		threshold = time.Millisecond
		slowDelay = 3 * time.Millisecond
	)
	prof := workload.Multitenant(400, 3)

	dev := denova.NewDevice(1<<30, pmem.ProfileZero)
	fs, err := denova.Mkfs(dev, denova.Config{
		Mode:              denova.ModeImmediate,
		Tracing:           denova.TraceFine,
		SlowSpanThreshold: threshold,
		SlowSpanCapacity:  256, // roomy: under -race many ops cross 1ms
	})
	if err != nil {
		t.Fatalf("mkfs: %v", err)
	}
	defer fs.Unmount()

	// ExecDelay stalls exactly the writes against the marked handle, inside
	// the window the serve.op.write histogram and serve.exec span measure.
	var slowHandle atomic.Uint64
	srv := server.New(fs, server.Config{
		ExecDelay: func(req *wire.Request) time.Duration {
			if h := slowHandle.Load(); h != 0 && req.Op == wire.OpWrite && uint64(req.Handle) == h {
				return slowDelay
			}
			return 0
		},
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("server start: %v", err)
	}
	defer srv.Close()

	cl, err := client.Dial(addr, client.Options{Tracer: fs.Tracer(), TraceContext: true})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	for tn := 0; tn < prof.Tenants; tn++ {
		if err := cl.Mkdir(prof.TenantDir(tn)); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
	}
	if _, err := Replay(OverWire(cl), prof); err != nil {
		t.Fatalf("replay: %v", err)
	}

	// Inject one slow request into tenant01's namespace.
	h, err := cl.Create("tenant01/e2e-slow")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	slowHandle.Store(uint64(h))
	payload := bytes.Repeat([]byte("slow-op-capture "), 1024) // 16 KiB
	if _, err := cl.Write(h, 0, payload); err != nil {
		t.Fatalf("slow write: %v", err)
	}
	slowHandle.Store(0)
	// COMMIT drains the dedup pipeline, so the write's async dedup spans
	// have attached to its trace before we inspect the capture.
	if err := cl.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	// (a) The p99 exemplar of serve.op.write resolves to a trace id, and
	// the exemplar covering the injected latency names a captured trace.
	snap := fs.Metrics()
	st, ok := snap.Histograms["serve.op.write"]
	if !ok || st.Count == 0 {
		t.Fatalf("no serve.op.write histogram in snapshot")
	}
	if ex, ok := st.ExemplarNear(st.P99Ns); !ok || ex.Trace == 0 || ex.TraceID == "" {
		t.Fatalf("p99 (%d ns) exemplar missing or unresolved: %+v ok=%v", st.P99Ns, ex, ok)
	}
	ex, ok := st.ExemplarNear(slowDelay.Nanoseconds())
	if !ok || ex.ValueNs < slowDelay.Nanoseconds() {
		t.Fatalf("no exemplar at or above the injected %v: %+v ok=%v", slowDelay, ex, ok)
	}
	slowTraces := fs.SlowSpans()
	if len(slowTraces) == 0 {
		t.Fatalf("slow capture empty despite injected %v request over %v threshold", slowDelay, threshold)
	}
	exemplarCaptured := false
	for _, str := range slowTraces {
		if str.TraceID == ex.TraceID {
			exemplarCaptured = true
			break
		}
	}
	if !exemplarCaptured {
		// The slow ring is FIFO-bounded: under heavy enough load the
		// exemplar's trace may have been legitimately evicted by newer slow
		// traces. Only an unevicted miss breaks the exemplar→capture link.
		if ev := fs.Tracer().Capture().Evicted(); ev == 0 {
			t.Errorf("exemplar trace %s not found in slow capture (%d traces, none evicted)",
				ex.TraceID, len(slowTraces))
		} else {
			t.Logf("exemplar trace %s evicted from the slow ring (%d evictions under load)", ex.TraceID, ev)
		}
	}

	// (b) Locate the injected request's trace by its handle and check the
	// span tree is complete across every layer.
	var slow *denova.SlowTrace
	for i := range slowTraces {
		for _, sp := range slowTraces[i].Spans {
			if sp.Op == "serve.op.write" && sp.Ino == uint64(h) {
				slow = &slowTraces[i]
			}
		}
	}
	if slow == nil {
		t.Fatalf("injected slow write (handle %d) not captured; have %d traces", h, len(slowTraces))
	}
	if slow.RootNs < slowDelay.Nanoseconds() {
		t.Errorf("judged root duration %d ns < injected %v", slow.RootNs, slowDelay)
	}
	have := map[string]bool{}
	ids := map[uint64]bool{}
	for _, sp := range slow.Spans {
		have[sp.Op] = true
		ids[sp.Span] = true
	}
	for _, want := range []string{
		"client.call",
		"serve.admission", "serve.queue_wait", "serve.exec", "serve.reply", "serve.op.write",
		"nova.write", "nova.write.alloc", "nova.write.log_commit",
		"dedup.enqueue", "dedup.process", "dedup.stage.fingerprint", "dedup.stage.fact_txn",
	} {
		if !have[want] {
			t.Errorf("span tree missing %q (have %v)", want, have)
		}
	}
	// Parent linkage: exactly the client.call span is the root; every other
	// span's parent id resolves within the captured tree.
	roots := 0
	for _, sp := range slow.Spans {
		if sp.Parent == 0 {
			roots++
			if sp.Op != "client.call" {
				t.Errorf("unexpected root span %q", sp.Op)
			}
			continue
		}
		if !ids[sp.Parent] {
			t.Errorf("span %q parent %016x not in tree", sp.Op, sp.Parent)
		}
	}
	if roots != 1 {
		t.Errorf("want exactly 1 root span (client.call), got %d", roots)
	}

	// (c) Tenant attribution: the path prefix tenant01/ must have flowed
	// through handle attribution into the trace and the server spans.
	if want := obs.TenantID(1); slow.Tenant != want {
		t.Errorf("slow trace tenant = %d, want %d (tenant01)", slow.Tenant, want)
	}
	for _, sp := range slow.Spans {
		if sp.Op == "serve.op.write" && sp.Tenant != obs.TenantID(1) {
			t.Errorf("serve.op.write span tenant = %d, want %d", sp.Tenant, obs.TenantID(1))
		}
		if sp.Op == "dedup.process" && sp.Tenant != obs.TenantID(1) {
			t.Errorf("dedup.process span tenant = %d, want %d (causal link lost)", sp.Tenant, obs.TenantID(1))
		}
	}
	// Per-tenant counters materialized for every tenant the replay touched.
	for tn := 0; tn < prof.Tenants; tn++ {
		name := "serve." + obs.TenantLabel(obs.TenantID(tn)) + ".ops"
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s missing or zero", name)
		}
	}
}
