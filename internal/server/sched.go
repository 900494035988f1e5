package server

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"denova"
	"denova/internal/obs"
	"denova/internal/server/wire"
)

// task is one admitted request bound to the session that must receive its
// response, plus the request's span state (zero when untraced).
type task struct {
	sess     *session
	req      *wire.Request
	sc       obs.SpanContext // server-side root span
	arrival  time.Time       // frame decoded on the reader
	enqueued time.Time       // admitted onto the shard queue
}

// shard is one worker's FIFO queue plus the count of tasks admitted to it
// and not yet finished, which is what lets a reader prove the shard idle.
type shard struct {
	q       chan task
	pending atomic.Int32
}

func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// maxReadSize bounds one READ's result so the response always fits a frame.
const maxReadSize = wire.MaxFrame - 64

// readdirByteBudget bounds one READDIR page's name payload (u16 length
// prefix + bytes per name) so the response always fits a frame.
const readdirByteBudget = wire.MaxFrame - 64

// pageNames slices one READDIR page out of the sorted name list: at most
// `page` entries starting at the cookie, further bounded by the frame byte
// budget. The returned cookie addresses the next page (0 when the listing
// is complete). Cookies index the sorted snapshot, so concurrent creates
// and removes may skip or repeat entries across pages — NFS semantics.
func pageNames(names []string, cookie uint32, page int) ([]string, uint32) {
	if uint64(cookie) >= uint64(len(names)) {
		return nil, 0
	}
	names = names[cookie:]
	n, budget := 0, 0
	for n < len(names) && n < page {
		cost := 2 + len(names[n])
		if n > 0 && budget+cost > readdirByteBudget {
			break
		}
		budget += cost
		n++
	}
	next := uint32(0)
	if n < len(names) {
		next = cookie + uint32(n)
	}
	return names[:n], next
}

// worker drains one queue FIFO, preserving per-shard (and therefore
// per-file) order.
func (s *Server) worker(sh *shard) {
	defer s.workerWG.Done()
	for t := range sh.q {
		s.run(&t)
		sh.pending.Add(-1)
	}
}

// run takes one admitted request to completion on the calling goroutine —
// a shard worker or the connection's reader: execute, record the op's
// latency in serve.op.<name>, encode, reply.
func (s *Server) run(t *task) {
	start := time.Now()
	if t.sc.Valid() {
		s.tracer.EmitSpan(obs.OpServeQueue, s.tracer.StartChild(t.sc), t.sc.Span,
			uint64(t.req.Handle), uint64(t.req.Op), t.enqueued, start.Sub(t.enqueued))
	}
	if d := s.cfg.ExecDelay; d != nil {
		if dd := d(t.req); dd > 0 {
			time.Sleep(dd)
		}
	}
	resp, frame := s.exec(t.req, t.sc)
	execDur := time.Since(start)
	// Exec-only duration, as before; the trace id rides along as the
	// histogram's latency exemplar so a p99 bucket names a trace.
	s.opHists[t.req.Op].ObserveSpan(execDur, t.sc.Trace)
	if t.sc.Valid() {
		s.tracer.EmitSpan(obs.OpServeExec, s.tracer.StartChild(t.sc), t.sc.Span,
			uint64(t.req.Handle), uint64(resp.Status), start, execDur)
	}
	if frame == nil {
		var err error
		if frame, err = wire.EncodeResponse(resp); err != nil {
			// An unencodable success body (cannot happen with the size
			// caps in exec) degrades to a bare error response.
			frame, _ = wire.EncodeResponse(&wire.Response{
				ID: resp.ID, Op: resp.Op, Status: wire.StatusIO, Msg: "response encoding failed",
			})
		}
	}
	s.reply(t, frame)
	s.inflight.Add(-1)
}

// exec runs one request against the FS and builds the response. Every
// error path maps through wire.StatusOf, so the taxonomy on the wire is
// exactly the public denova taxonomy. The span context flows into the FS
// data ops, making nova spans (and the dedup work a write enqueues)
// children of this request's trace. A successful READ comes back already
// encoded (frame non-nil): the file data is read straight into the reply
// frame, the one data-sized allocation of the request.
func (s *Server) exec(req *wire.Request, sc obs.SpanContext) (resp *wire.Response, frame []byte) {
	resp = &wire.Response{ID: req.ID, Op: req.Op}
	fail := func(err error) (*wire.Response, []byte) {
		resp.Status = wire.StatusOf(err)
		resp.Msg = err.Error()
		return resp, nil
	}
	switch req.Op {
	case wire.OpLookup:
		h, info, err := s.fs.Lookup(req.Path)
		if err != nil {
			return fail(err)
		}
		resp.Handle = h
		resp.Info = wireInfo(info)
		s.rememberTenant(h, req.Path)
	case wire.OpCreate:
		f, err := s.fs.Create(req.Path)
		if err != nil {
			return fail(err)
		}
		resp.Handle = f.Handle()
		s.rememberTenant(resp.Handle, req.Path)
	case wire.OpRead:
		f, off, err := s.resolve(req)
		if err != nil {
			return fail(err)
		}
		if req.Size > maxReadSize {
			return fail(wire.StatusInvalid.Err("read length exceeds frame budget"))
		}
		frame = make([]byte, wire.ReadRespHeader+req.Size)
		n, err := f.ReadAtSpan(frame[wire.ReadRespHeader:], off, sc)
		if err != nil {
			return fail(err)
		}
		return resp, wire.EncodeReadResponse(frame, req.ID, n)
	case wire.OpWrite:
		f, off, err := s.resolve(req)
		if err != nil {
			return fail(err)
		}
		n, err := f.WriteAtSpan(req.Data, off, sc)
		if err != nil {
			return fail(err)
		}
		resp.N = uint32(n)
	case wire.OpTruncate:
		f, _, err := s.resolve(req)
		if err != nil {
			return fail(err)
		}
		if req.Size > math.MaxInt64 {
			return fail(wire.StatusInvalid.Err("truncate size overflows"))
		}
		if err := f.TruncateSpan(int64(req.Size), sc); err != nil {
			return fail(err)
		}
	case wire.OpRemove:
		if err := s.fs.Remove(req.Path); err != nil {
			return fail(err)
		}
	case wire.OpMkdir:
		if err := s.fs.Mkdir(req.Path); err != nil {
			return fail(err)
		}
	case wire.OpReaddir:
		names, err := s.fs.List(req.Path)
		if err != nil {
			return fail(err)
		}
		sort.Strings(names)
		resp.Names, resp.Next = pageNames(names, req.Cookie, s.cfg.ReaddirPage)
	case wire.OpStat:
		f, _, err := s.resolve(req)
		if err != nil {
			return fail(err)
		}
		resp.Info = wireInfo(f.Stat())
	case wire.OpCommit:
		s.fs.Sync()
	default:
		return fail(wire.StatusInvalid.Err("unknown op"))
	}
	return resp, nil
}

// resolve turns a handle op's (handle, off) pair into an open file and a
// validated signed offset.
func (s *Server) resolve(req *wire.Request) (*denova.File, int64, error) {
	if req.Off > math.MaxInt64 {
		return nil, 0, wire.StatusInvalid.Err("offset overflows")
	}
	f, err := s.fs.FileByHandle(req.Handle)
	if err != nil {
		return nil, 0, err
	}
	return f, int64(req.Off), nil
}

func wireInfo(fi denova.FileInfo) wire.FileInfo {
	return wire.FileInfo{
		Size:  fi.Size,
		Pages: fi.Pages,
		Ctime: fi.Ctime,
		Mtime: fi.Mtime,
		IsDir: fi.IsDir,
	}
}
