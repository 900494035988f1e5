package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"denova"
	"denova/internal/server/client"
	"denova/internal/server/wire"
)

func startServer(t *testing.T, cfg Config, mode denova.Mode, prof denova.LatencyProfile) (*denova.FS, *Server, string) {
	t.Helper()
	fs, err := denova.Mkfs(denova.NewDevice(128<<20, prof), denova.Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(fs, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		fs.Unmount()
	})
	return fs, srv, addr
}

// TestServeEndToEnd drives every op through the client over loopback and
// checks results, error taxonomy, and the serve.op.* metrics.
func TestServeEndToEnd(t *testing.T) {
	fs, srv, addr := startServer(t, Config{}, denova.ModeImmediate, denova.ProfileZero)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Mkdir("dir"); err != nil {
		t.Fatal(err)
	}
	h, err := c.Create("dir/file")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("denova"), 1000)
	if n, err := c.Write(h, 0, payload); err != nil || n != len(payload) {
		t.Fatalf("write = %d, %v", n, err)
	}
	got, err := c.Read(h, 0, uint32(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back %d bytes, %v", len(got), err)
	}
	// Short read at EOF, not an error.
	tail, err := c.Read(h, uint64(len(payload))-3, 100)
	if err != nil || len(tail) != 3 {
		t.Fatalf("eof read = %d bytes, %v", len(tail), err)
	}
	info, err := c.Stat(h)
	if err != nil || info.Size != int64(len(payload)) || info.IsDir {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	lh, linfo, err := c.Lookup("dir/file")
	if err != nil || lh != h || linfo.Size != int64(len(payload)) {
		t.Fatalf("lookup = %#x %+v, %v (create handle %#x)", lh, linfo, err, h)
	}
	names, err := c.Readdir("dir")
	if err != nil || len(names) != 1 || names[0] != "file" {
		t.Fatalf("readdir = %v, %v", names, err)
	}
	if err := c.Truncate(h, 10); err != nil {
		t.Fatal(err)
	}
	if info, err = c.Stat(h); err != nil || info.Size != 10 {
		t.Fatalf("post-truncate stat = %+v, %v", info, err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	// The error taxonomy survives the wire: sentinels are errors.Is-able on
	// the client side.
	if _, err := c.Create("dir/file"); !errors.Is(err, denova.ErrExists) {
		t.Errorf("create existing = %v, want ErrExists", err)
	}
	if _, _, err := c.Lookup("missing"); !errors.Is(err, denova.ErrNotFound) {
		t.Errorf("lookup missing = %v, want ErrNotFound", err)
	}
	if _, err := c.Readdir("dir/file"); !errors.Is(err, denova.ErrNotDir) {
		t.Errorf("readdir file = %v, want ErrNotDir", err)
	}
	if _, _, err := c.Lookup("a//b"); !errors.Is(err, denova.ErrInvalid) {
		t.Errorf("lookup malformed = %v, want ErrInvalid", err)
	}
	dh, _, err := c.Lookup("dir")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(dh, 0, []byte("x")); !errors.Is(err, denova.ErrIsDir) {
		t.Errorf("write to dir = %v, want ErrIsDir", err)
	}
	if err := c.Remove("dir/file"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(h); !errors.Is(err, denova.ErrStaleHandle) {
		t.Errorf("stat removed = %v, want ErrStaleHandle", err)
	}

	// Server op latencies are visible in the FS's own registry.
	snap := fs.Registry().Snapshot()
	for _, op := range []string{"lookup", "create", "read", "write", "stat", "commit"} {
		st, ok := snap.Histograms["serve.op."+op]
		if !ok || st.Count == 0 {
			t.Errorf("serve.op.%s histogram missing or empty", op)
		}
	}
	if snap.Counters["serve.admitted"] == 0 {
		t.Error("serve.admitted counter empty")
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// rawConn speaks the wire protocol directly (no client conveniences), for
// tests that need control over pipelining and response consumption.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	id   uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn}
}

func (r *rawConn) send(req *wire.Request) uint64 {
	r.t.Helper()
	r.id++
	req.ID = r.id
	frame, err := wire.EncodeRequest(req)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := wire.WriteFrame(r.conn, frame); err != nil {
		r.t.Fatal(err)
	}
	return req.ID
}

// sendBurst writes every request in one conn.Write, so the server's reader
// finds the later ones already buffered behind the first: a pipelining
// client as the server sees it, independent of scheduling.
func (r *rawConn) sendBurst(reqs ...*wire.Request) {
	r.t.Helper()
	var all []byte
	for _, req := range reqs {
		r.id++
		req.ID = r.id
		frame, err := wire.EncodeRequest(req)
		if err != nil {
			r.t.Fatal(err)
		}
		all = append(all, frame...)
	}
	if err := wire.WriteFrame(r.conn, all); err != nil {
		r.t.Fatal(err)
	}
}

// recvOK reads n responses and fails the test on any non-OK status.
func (r *rawConn) recvOK(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		if resp := r.recv(); resp.Status != wire.StatusOK {
			r.t.Fatalf("%v %d: %v %s", resp.Op, resp.ID, resp.Status, resp.Msg)
		}
	}
}

func counters(fs *denova.FS) (inline, admitted int64) {
	c := fs.Registry().Snapshot().Counters
	return c["serve.inline"], c["serve.admitted"]
}

func (r *rawConn) recv() *wire.Response {
	r.t.Helper()
	payload, err := wire.ReadFrame(r.conn)
	if err != nil {
		r.t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		r.t.Fatal(err)
	}
	return resp
}

// TestServePipeliningPerFileOrder pipelines many writes to one file without
// waiting for responses; per-file FIFO scheduling must apply them in send
// order, so the final read sees the last write.
func TestServePipeliningPerFileOrder(t *testing.T) {
	_, _, addr := startServer(t, Config{Workers: 4}, denova.ModeImmediate, denova.ProfileZero)
	rc := dialRaw(t, addr)

	rc.send(&wire.Request{Op: wire.OpCreate, Path: "f"})
	resp := rc.recv()
	if resp.Status != wire.StatusOK {
		t.Fatalf("create: %v %s", resp.Status, resp.Msg)
	}
	h := resp.Handle

	const rounds = 64
	sent := make(map[uint64]bool)
	for i := 0; i < rounds; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 512)
		sent[rc.send(&wire.Request{Op: wire.OpWrite, Handle: h, Off: 0, Data: data})] = true
	}
	for i := 0; i < rounds; i++ {
		resp := rc.recv()
		if !sent[resp.ID] {
			t.Fatalf("unexpected response id %d", resp.ID)
		}
		delete(sent, resp.ID)
		if resp.Status != wire.StatusOK {
			t.Fatalf("write %d: %v %s", resp.ID, resp.Status, resp.Msg)
		}
	}
	rc.send(&wire.Request{Op: wire.OpRead, Handle: h, Size: 512})
	resp = rc.recv()
	if resp.Status != wire.StatusOK {
		t.Fatalf("read: %v %s", resp.Status, resp.Msg)
	}
	want := bytes.Repeat([]byte{rounds - 1}, 512)
	if !bytes.Equal(resp.Data, want) {
		t.Fatalf("final content = %v..., want all %d (writes reordered)", resp.Data[:4], rounds-1)
	}
}

// TestServeFastPathKeepsPerFileOrder mixes the two ways a request can run
// on one connection and one handle: synchronous WRITEs (executed by the
// reader) and pipelined bursts (queued on the shard, each slowed by
// ExecDelay), every burst chased by a lone WRITE that arrives with nothing
// buffered behind it while the shard is still busy. Writes overlap at
// shifting offsets, so the final content equals sequential application only
// if no write overtook an earlier one.
func TestServeFastPathKeepsPerFileOrder(t *testing.T) {
	const slow = 0x80 // marks the burst's writes for ExecDelay
	cfg := Config{Workers: 4, ExecDelay: func(req *wire.Request) time.Duration {
		if req.Op == wire.OpWrite && req.Data[0]&slow != 0 {
			return time.Millisecond
		}
		return 0
	}}
	fs, _, addr := startServer(t, cfg, denova.ModeImmediate, denova.ProfileZero)
	rc := dialRaw(t, addr)
	rc.send(&wire.Request{Op: wire.OpCreate, Path: "f"})
	h := rc.recv().Handle

	model := make([]byte, 1024)
	seq := 0
	write := func(mark byte) *wire.Request {
		seq++
		off := seq % 5 * 128
		data := bytes.Repeat([]byte{byte(seq)&^slow | mark}, 512)
		copy(model[off:], data)
		return &wire.Request{Op: wire.OpWrite, Handle: h, Off: uint64(off), Data: data}
	}
	for round := 0; round < 4; round++ {
		rc.send(write(0))
		rc.recvOK(1)
		burst := make([]*wire.Request, 6)
		for i := range burst {
			burst[i] = write(slow)
		}
		rc.sendBurst(burst...)
		rc.send(write(0)) // alone on the wire, but its shard is not idle
		rc.recvOK(len(burst) + 1)
	}
	rc.send(&wire.Request{Op: wire.OpRead, Handle: h, Size: uint64(len(model))})
	resp := rc.recv()
	if resp.Status != wire.StatusOK {
		t.Fatalf("read: %v %s", resp.Status, resp.Msg)
	}
	if !bytes.Equal(resp.Data, model) {
		t.Fatal("final content differs from sequential application: a write overtook an earlier one")
	}
	if inline, admitted := counters(fs); inline == 0 || inline >= admitted {
		t.Errorf("serve.inline = %d of %d admitted: want both paths exercised", inline, admitted)
	}
}

// TestServeInlineCounter pins serve.inline: a strictly synchronous client
// has every op run on the reader (inline == admitted), and a pipelined
// burst onto a busy shard adds to serve.admitted only.
func TestServeInlineCounter(t *testing.T) {
	cfg := Config{ExecDelay: func(req *wire.Request) time.Duration {
		if req.Op == wire.OpStat {
			return time.Millisecond
		}
		return 0
	}}
	fs, _, addr := startServer(t, cfg, denova.ModeImmediate, denova.ProfileZero)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Write(h, 0, []byte("sync")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(h, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	inline, admitted := counters(fs)
	if inline != admitted || admitted != 41 {
		t.Fatalf("synchronous client: serve.inline = %d, serve.admitted = %d, want 41 and 41", inline, admitted)
	}

	rc := dialRaw(t, addr)
	burst := make([]*wire.Request, 8)
	for i := range burst {
		burst[i] = &wire.Request{Op: wire.OpStat, Handle: h}
	}
	rc.sendBurst(burst...)
	rc.recvOK(len(burst))
	inline2, admitted2 := counters(fs)
	if admitted2 != admitted+int64(len(burst)) || inline2 != inline {
		t.Fatalf("pipelined burst: serve.inline %d -> %d, serve.admitted %d -> %d; want +0 and +%d",
			inline, inline2, admitted, admitted2, len(burst))
	}
}

// TestServeStalledConsumerClose: a connection that sends READs and never
// reads a reply leaves the server blocked in a socket write (the reader's
// own, on the fast path). Close must still return promptly — conn.Close
// unblocks the write — and leave no goroutine behind.
func TestServeStalledConsumerClose(t *testing.T) {
	fs, err := denova.Mkfs(denova.NewDevice(128<<20, denova.ProfileZero), denova.Config{Mode: denova.ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	before := runtime.NumGoroutine()
	srv := New(fs, Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, addr)
	rc.send(&wire.Request{Op: wire.OpCreate, Path: "big"})
	h := rc.recv().Handle
	const size = 1 << 20
	rc.send(&wire.Request{Op: wire.OpWrite, Handle: h, Data: make([]byte, size)})
	rc.recvOK(1)

	// 64 MiB of replies cannot fit the loopback socket buffers; the server
	// is stalled once the count of executed READs (each is followed by its
	// reply write) stops moving short of the full count.
	const reads = 64
	for i := 0; i < reads; i++ {
		rc.send(&wire.Request{Op: wire.OpRead, Handle: h, Size: size})
	}
	executed := func() int64 { return fs.Registry().Snapshot().Histograms["serve.op.read"].Count }
	last := executed()
	for deadline := time.Now().Add(10 * time.Second); ; {
		time.Sleep(50 * time.Millisecond)
		now := executed()
		if now == last && now > 0 {
			break
		}
		if last = now; time.Now().After(deadline) {
			t.Fatal("serve.op.read never settled")
		}
	}
	if last >= reads {
		t.Fatalf("all %d READs were answered; the consumer never stalled the server", reads)
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with a reply write blocked in the socket")
	}
	// Close has waited for every goroutine it started; allow the last of
	// them the instant between wg.Done and actually exiting.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines: %d before Start, %d after Close", before, after)
	}
}

// TestServeInlineSpanTree: a traced request run on the reader has the same
// serve.* children under the same root as one that went through the shard
// queue, so trace consumers need no special case for the fast path.
func TestServeInlineSpanTree(t *testing.T) {
	fs, err := denova.Mkfs(denova.NewDevice(128<<20, denova.ProfileZero), denova.Config{
		Mode: denova.ModeNone, Tracing: denova.TraceFine,
		SlowSpanThreshold: time.Millisecond, SlowSpanCapacity: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	srv := New(fs, Config{ExecDelay: func(req *wire.Request) time.Duration {
		if req.Op == wire.OpWrite {
			return 2 * time.Millisecond // over the threshold: every write is captured
		}
		return 0
	}})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc := dialRaw(t, addr)
	rc.send(&wire.Request{Op: wire.OpCreate, Path: "inline"})
	hInline := rc.recv().Handle
	rc.send(&wire.Request{Op: wire.OpCreate, Path: "queued"})
	hQueued := rc.recv().Handle

	inline0, _ := counters(fs)
	rc.send(&wire.Request{Op: wire.OpWrite, Handle: hInline, Data: []byte("x")})
	rc.recvOK(1)
	inline1, _ := counters(fs)
	rc.sendBurst(&wire.Request{Op: wire.OpWrite, Handle: hQueued, Data: []byte("x")},
		&wire.Request{Op: wire.OpWrite, Handle: hQueued, Data: []byte("y")})
	rc.recvOK(2)
	inline2, _ := counters(fs)
	if inline1 != inline0+1 || inline2 != inline1 {
		t.Fatalf("serve.inline %d -> %d -> %d; want the lone write inline and the burst queued", inline0, inline1, inline2)
	}

	// children returns the serve.* spans directly under the serve.op.write
	// root of the first captured trace against the handle.
	children := func(h denova.Handle) []string {
		for _, tr := range fs.SlowSpans() {
			var root uint64
			for _, sp := range tr.Spans {
				if sp.Op == "serve.op.write" && sp.Ino == uint64(h) {
					root = sp.Span
				}
			}
			if root == 0 {
				continue
			}
			var ops []string
			for _, sp := range tr.Spans {
				if sp.Parent == root && strings.HasPrefix(sp.Op, "serve.") {
					ops = append(ops, sp.Op)
				}
			}
			sort.Strings(ops)
			return ops
		}
		t.Fatalf("no captured serve.op.write trace for handle %#x", h)
		return nil
	}
	want := []string{"serve.admission", "serve.exec", "serve.queue_wait", "serve.reply"}
	if got := children(hInline); !reflect.DeepEqual(got, want) {
		t.Errorf("inline op's children = %v, want %v", got, want)
	}
	if got := children(hQueued); !reflect.DeepEqual(got, want) {
		t.Errorf("queued op's children = %v, want %v", got, want)
	}
}

// TestServeAdmissionShedding drowns a tiny server (1 worker, in-flight cap
// 2) in pipelined requests behind one slow write; the overflow must come
// back as StatusRetry, never queue without bound, and the shed counter must
// tick. The client-level retry loop then shows the same storm succeeding
// end to end.
func TestServeAdmissionShedding(t *testing.T) {
	fs, _, addr := startServer(t,
		Config{Workers: 1, MaxInflight: 2, QueueDepth: 2},
		denova.ModeImmediate, denova.ProfileOptane)
	rc := dialRaw(t, addr)

	rc.send(&wire.Request{Op: wire.OpCreate, Path: "slow"})
	resp := rc.recv()
	if resp.Status != wire.StatusOK {
		t.Fatalf("create: %v %s", resp.Status, resp.Msg)
	}
	h := resp.Handle

	// One 2 MiB write occupies the only worker for a while (simulated PM
	// latency), then a burst of stats outruns the in-flight cap.
	const burst = 64
	rc.send(&wire.Request{Op: wire.OpWrite, Handle: h, Data: make([]byte, 2<<20)})
	for i := 0; i < burst; i++ {
		rc.send(&wire.Request{Op: wire.OpStat, Handle: h})
	}
	var shed, ok int
	for i := 0; i < burst+1; i++ {
		switch resp := rc.recv(); resp.Status {
		case wire.StatusOK:
			ok++
		case wire.StatusRetry:
			shed++
		default:
			t.Fatalf("unexpected status %v: %s", resp.Status, resp.Msg)
		}
	}
	if shed == 0 {
		t.Fatal("no requests shed despite in-flight cap 2 and burst of 64")
	}
	if ok == 0 {
		t.Fatal("no requests admitted")
	}
	if got := fs.Registry().Snapshot().Counters["serve.shed"]; got == 0 {
		t.Error("serve.shed counter empty")
	}

	// The client's retry loop absorbs sheds: the same storm through the
	// real client completes with zero surfaced errors.
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Stat(h); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client stat under shed storm: %v", err)
	}
}

// TestServeConcurrentClients runs many clients against many files at once
// and verifies each file's content independently (cross-file parallelism
// with per-file integrity).
func TestServeConcurrentClients(t *testing.T) {
	_, _, addr := startServer(t, Config{}, denova.ModeImmediate, denova.ProfileZero)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			path := fmt.Sprintf("file-%d", g)
			h, err := c.Create(path)
			if err != nil {
				errs <- err
				return
			}
			want := bytes.Repeat([]byte{byte(g + 1)}, 8192)
			for off := 0; off < len(want); off += 1024 {
				if _, err := c.Write(h, uint64(off), want[off:off+1024]); err != nil {
					errs <- err
					return
				}
			}
			got, err := c.Read(h, 0, uint32(len(want)))
			if err != nil || !bytes.Equal(got, want) {
				errs <- fmt.Errorf("client %d: read mismatch (%d bytes, %v)", g, len(got), err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeProtocolErrorDropsConn: a malformed frame kills the connection
// (no id to answer) but not the server.
func TestServeProtocolErrorDropsConn(t *testing.T) {
	_, _, addr := startServer(t, Config{}, denova.ModeImmediate, denova.ProfileZero)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Valid length word, garbage payload (invalid op 0xEE).
	bad := []byte{9, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0xEE}
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("expected connection drop after protocol error")
	}
	conn.Close()

	// Server still serves fresh connections.
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Create("alive"); err != nil {
		t.Fatal(err)
	}
}
