// Package server is the DENOVA network serving layer: a TCP front-end
// exposing the NFS-like stateless op set defined by internal/server/wire
// against one mounted denova.FS.
//
// Design (modelled on NFS v3 serving):
//
//   - Stateless ops. LOOKUP/CREATE resolve a path once to a stable 64-bit
//     handle (inode identity); all data ops address the handle. The server
//     keeps no per-connection open-file table, so any worker can execute
//     any request and a reconnecting client keeps its handles.
//
//   - Pipelining. A connection may have many requests in flight; responses
//     carry the client's request id and may arrive out of order across
//     files. Per-file order is preserved: the scheduler partitions requests
//     by handle (path ops by path hash) onto a fixed worker pool, and each
//     worker drains its queue FIFO.
//
//   - Run to completion. When a connection has nothing further buffered
//     (the client is not pipelining) and the request's shard has no queued
//     or running task, nothing can be reordered, so the connection's reader
//     executes the op and writes the reply itself instead of paying two
//     goroutine hand-offs. COMMIT always takes the pool: its drain is
//     unbounded and the reader must keep admitting and shedding meanwhile.
//
//   - Admission control. A global in-flight cap plus bounded per-worker
//     queues; when either would overflow, the request is shed immediately
//     with StatusRetry instead of queueing without bound. Sheds, admissions
//     and per-op latency histograms (serve.op.<name>) are recorded in the
//     FS's obs registry, so denovactl top and /metrics see serving and
//     dedup behavior side by side.
package server

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"denova"
	"denova/internal/obs"
	"denova/internal/server/wire"
)

// Config tunes the serving layer. The zero value picks sane defaults.
type Config struct {
	// Workers is the size of the op worker pool. Default:
	// min(GOMAXPROCS, 8).
	Workers int
	// MaxInflight caps admitted-but-uncompleted requests across all
	// connections; beyond it new requests are shed with StatusRetry.
	// Default 256.
	MaxInflight int
	// QueueDepth bounds each worker's queue; a full queue sheds with
	// StatusRetry rather than blocking the connection reader. Default 64.
	QueueDepth int
	// ReaddirPage caps the entries returned per READDIR page; the client
	// follows the response's next cookie for the rest. A page is further
	// bounded by the frame byte budget regardless of this count. Default
	// 1024.
	ReaddirPage int
	// ExecDelay, when set, is consulted per request and the returned
	// duration slept inside the execution window (counted by the serve.op
	// histogram and the serve.exec span). Test hook for injecting slow
	// requests; nil in production.
	ExecDelay func(req *wire.Request) time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = defaultWorkers()
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ReaddirPage <= 0 {
		c.ReaddirPage = 1024
	}
	return c
}

// Server serves one mounted FS over TCP. Create with New, start with
// Start, stop with Close.
type Server struct {
	fs  *denova.FS
	cfg Config

	ln     net.Listener
	shards []shard
	closed atomic.Bool

	inflight   atomic.Int64
	inflightG  *obs.Gauge
	admitted   *obs.Counter
	inline     *obs.Counter // admitted ops run on the connection's reader
	shed       *obs.Counter
	protoErrs  *obs.Counter
	connsG     *obs.Gauge
	conns      atomic.Int64
	opHists    []*obs.Histogram
	workerWG   sync.WaitGroup
	connWG     sync.WaitGroup
	acceptDone chan struct{}

	tracer       *obs.Tracer    // the FS tracer; spans no-op at TraceOff
	tenants      tenantCounters // per-tenant op/byte/shed counters
	handleTenant sync.Map       // denova.Handle -> uint16 tenant id

	mu       sync.Mutex
	sessions map[*session]struct{}
}

// New builds a server around a mounted FS. The FS must outlive the server.
func New(fs *denova.FS, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		fs:       fs,
		cfg:      cfg,
		sessions: make(map[*session]struct{}),
	}
	reg := fs.Registry()
	s.admitted = reg.Counter("serve.admitted")
	s.inline = reg.Counter("serve.inline")
	s.shed = reg.Counter("serve.shed")
	s.protoErrs = reg.Counter("serve.proto_errors")
	s.inflightG = reg.Gauge("serve.inflight")
	s.connsG = reg.Gauge("serve.conns")
	s.opHists = make([]*obs.Histogram, wire.OpCommit+1)
	for _, op := range wire.Ops() {
		s.opHists[op] = reg.Histogram("serve.op." + op.String())
	}
	s.tracer = fs.Tracer()
	return s
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port), spawns
// the worker pool and the accept loop, and returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.shards = make([]shard, s.cfg.Workers)
	for i := range s.shards {
		s.shards[i].q = make(chan task, s.cfg.QueueDepth)
		s.workerWG.Add(1)
		go s.worker(&s.shards[i])
	}
	s.acceptDone = make(chan struct{})
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down: stop accepting, close every connection,
// wait for session goroutines, then drain and stop the worker pool. Safe
// to call once; the FS itself is left mounted.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.ln != nil {
		s.ln.Close()
		<-s.acceptDone
	}
	s.mu.Lock()
	for sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	// No readers remain, so no new tasks can be enqueued: closing the
	// queues lets each worker finish its backlog and exit.
	for i := range s.shards {
		close(s.shards[i].q)
	}
	s.workerWG.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handleConn(c)
		}()
	}
}

// session is one client connection: a reader goroutine (frames → admission
// → run inline or schedule). Whoever finishes an op — the reader or a shard
// worker — writes the reply itself under wmu. A dead or stalled client
// blocks that write in the socket; conn.Close (readLoop exit, Server.Close)
// unblocks it, so a dead client can never wedge the pool.
type session struct {
	conn net.Conn
	br   *bufio.Reader // reader goroutine only
	wmu  sync.Mutex    // serializes reply frames onto conn
}

func (s *Server) handleConn(c net.Conn) {
	sess := &session{conn: c, br: bufio.NewReader(c)}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.connsG.Store(s.conns.Add(1))
	defer func() {
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		s.connsG.Store(s.conns.Add(-1))
	}()
	s.readLoop(sess)
	c.Close()
}

// reply writes one finished response frame and then, for a traced request,
// closes its spans: only once the reply has hit the socket, so the reply
// span covers write-lock wait + write and the root serve.op.<name> span
// covers arrival → reply and is what the slow-op capture judges.
func (s *Server) reply(t *task, frame []byte) {
	var wstart time.Time
	if t.sc.Valid() {
		wstart = time.Now()
	}
	t.sess.wmu.Lock()
	err := wire.WriteFrame(t.sess.conn, frame)
	t.sess.wmu.Unlock()
	if err != nil {
		t.sess.conn.Close()
		return
	}
	if t.sc.Valid() {
		now := time.Now()
		s.tracer.EmitSpan(obs.OpServeReply, s.tracer.StartChild(t.sc), t.sc.Span,
			uint64(t.req.Handle), uint64(len(frame)), wstart, now.Sub(wstart))
		total := now.Sub(t.arrival)
		s.tracer.EmitSpan(wireOpSpan[t.req.Op], t.sc, t.req.Span,
			uint64(t.req.Handle), uint64(len(frame)), t.arrival, total)
		s.tracer.JudgeSlow(t.sc, total)
	}
}

// readLoop decodes frames and sheds, runs or schedules them. A framing or
// decode error is a protocol violation: without a trustworthy request id
// there is nothing to respond to, so the connection is dropped.
func (s *Server) readLoop(sess *session) {
	for {
		payload, err := wire.ReadFrame(sess.br)
		if err != nil {
			return // EOF, connection closed, or hostile length word
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			s.protoErrs.Inc()
			return
		}
		s.dispatch(sess, req)
	}
}

// dispatch applies admission control and either runs the request on this
// (the reader) goroutine or routes it to its worker. Every request is
// attributed to a tenant (0 = unattributed) and, when tracing is on, opens
// a server root span — adopting the client's trace id from the wire
// extension when one arrived, minting a fresh one otherwise.
func (s *Server) dispatch(sess *session, req *wire.Request) {
	tenant := s.tenantOf(req)
	ts := s.tenants.get(s, tenant)
	ts.ops.Inc()
	if req.Op == wire.OpWrite {
		ts.bytes.Add(int64(len(req.Data)))
	}
	t := task{sess: sess, req: req, sc: s.tracer.Adopt(req.Trace, tenant)}
	if t.sc.Valid() {
		t.arrival = time.Now()
	}
	if n := s.inflight.Add(1); n > int64(s.cfg.MaxInflight) {
		s.inflight.Add(-1)
		ts.shed.Inc()
		s.shedReq(&t, "server at max in-flight ops")
		return
	}
	s.inflightG.Store(s.inflight.Load())
	sh := &s.shards[shardKey(req)%uint64(len(s.shards))]
	if t.sc.Valid() {
		t.enqueued = time.Now()
	}
	// Nothing buffered behind this request and nothing of its shard queued
	// or running: no later request can overtake it, so run it right here.
	inline := req.Op != wire.OpCommit && sess.br.Buffered() == 0 && sh.pending.Load() == 0
	if !inline {
		sh.pending.Add(1)
		select {
		case sh.q <- t:
		default:
			sh.pending.Add(-1)
			s.inflight.Add(-1)
			ts.shed.Inc()
			s.shedReq(&t, "worker queue full")
			return
		}
	}
	s.admitted.Inc()
	if t.sc.Valid() {
		s.tracer.EmitSpan(obs.OpServeAdmit, s.tracer.StartChild(t.sc), t.sc.Span,
			uint64(req.Handle), uint64(req.Op), t.arrival, t.enqueued.Sub(t.arrival))
	}
	if inline {
		s.inline.Inc()
		s.run(&t)
	}
}

// shedReq answers a request with StatusRetry without consuming a worker.
// A traced shed still closes its root span (with the shed reason's tiny
// duration), so per-tenant shed storms are visible in traces too.
func (s *Server) shedReq(t *task, why string) {
	s.shed.Inc()
	frame, err := wire.EncodeResponse(&wire.Response{
		ID: t.req.ID, Op: t.req.Op, Status: wire.StatusRetry, Msg: why,
	})
	if err != nil {
		return // cannot happen: fixed-shape response
	}
	s.reply(t, frame)
}

// shardKey partitions requests so that all ops against one object land on
// one worker (preserving per-file order): handle ops key on the handle,
// path ops on a hash of the path. COMMIT keys to 0 — it drains the global
// dedup pipeline, so any fixed worker serializes concurrent commits.
func shardKey(req *wire.Request) uint64 {
	switch req.Op {
	case wire.OpRead, wire.OpWrite, wire.OpTruncate, wire.OpStat:
		return uint64(req.Handle)
	case wire.OpCommit:
		return 0
	default:
		return fnv64a(req.Path)
	}
}

// fnv64a is FNV-1a; inlined to keep the hot dispatch path allocation-free.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
