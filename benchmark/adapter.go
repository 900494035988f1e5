package main

// Every call into the system under test goes through this file: set-up,
// the seven trace ops against the in-process API and against the wire
// client, the counters each layer exposes, the wire codec, and the crash
// image. When a public signature changes, this is the only file to edit.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"denova"
	"denova/internal/pmem"
	"denova/internal/server"
	"denova/internal/server/client"
	"denova/internal/server/wire"
	"denova/internal/workload"
)

// Fixed pool sizes: they must not follow GOMAXPROCS, or two hosts would
// measure two different programs.
const (
	maxInodes     = 8192
	dedupWorkers  = 1
	serverWorkers = 2
)

// target is the narrow driver the replay loop runs a trace through. key is
// the file slot; a target keeps whatever handle the slot needs.
type target interface {
	create(key int) error
	// write covers overwrite and append: p lands at off.
	write(key int, off int64, p []byte) error
	// read returns the bytes at [off, off+len(buf)); it may use buf.
	read(key int, off int64, buf []byte) ([]byte, error)
	stat(key int) (size int64, err error)
	truncate(key int, size int64) error
	remove(key int) error
	// sync blocks until staged writes are durable and queued dedup is done.
	sync() error
}

// inproc drives denova.FS directly.
type inproc struct {
	fs    *denova.FS
	paths []string
	files []*denova.File
}

func (t *inproc) create(key int) error {
	f, err := t.fs.Create(t.paths[key])
	t.files[key] = f
	return err
}

func (t *inproc) write(key int, off int64, p []byte) error {
	_, err := t.files[key].WriteAt(p, off)
	return err
}

func (t *inproc) read(key int, off int64, buf []byte) ([]byte, error) {
	n, err := t.files[key].ReadAt(buf, off)
	return buf[:n], err
}

func (t *inproc) stat(key int) (int64, error) { return t.files[key].Stat().Size, nil }

func (t *inproc) truncate(key int, size int64) error { return t.files[key].Truncate(size) }

func (t *inproc) remove(key int) error {
	t.files[key] = nil
	return t.fs.Remove(t.paths[key])
}

func (t *inproc) sync() error {
	t.fs.Sync()
	return nil
}

// overWire drives the same ops through one client connection.
type overWire struct {
	c       *client.Client
	paths   []string
	handles []denova.Handle
}

func (t *overWire) create(key int) error {
	h, err := t.c.Create(t.paths[key])
	t.handles[key] = h
	return err
}

func (t *overWire) write(key int, off int64, p []byte) error {
	n, err := t.c.Write(t.handles[key], uint64(off), p)
	if err == nil && n != len(p) {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(p))
	}
	return err
}

func (t *overWire) read(key int, off int64, buf []byte) ([]byte, error) {
	return t.c.Read(t.handles[key], uint64(off), uint32(len(buf)))
}

func (t *overWire) stat(key int) (int64, error) {
	fi, err := t.c.Stat(t.handles[key])
	return fi.Size, err
}

func (t *overWire) truncate(key int, size int64) error {
	return t.c.Truncate(t.handles[key], uint64(size))
}

func (t *overWire) remove(key int) error { return t.c.Remove(t.paths[key]) }

func (t *overWire) sync() error { return t.c.Commit() }

// env is one set-up system: device, file system, and for wire workloads the
// server and its connections.
type env struct {
	cfg     denova.Config
	dev     *pmem.Device
	fs      *denova.FS
	srv     *server.Server
	conns   []*client.Client
	targets []target
	linger  *lingerLog
}

// sizes of a quick run (unit tests): small devices, short fixed phases.
const (
	quickDevSize = 64 << 20
	quickDivisor = 20
)

// setup is step 1 of the run protocol. serial builds the traced pass's
// variant: no daemon and one client, so that queued dedup runs inside sync
// and one goroutine owns the device.
func setup(s *spec, paths []string, serial, quick bool) (*env, error) {
	size := s.devSize
	if quick {
		size = quickDevSize
	}
	dev := denova.NewDevice(size, pmem.ProfileZero)
	// Pre-fault: touch every page now, or the first write to each one would
	// pay the host's page fault inside a timed interval.
	zeros := make([]byte, 1<<20)
	for off := int64(0); off < dev.Size(); off += int64(len(zeros)) {
		dev.WriteNT(off, zeros[:min(int64(len(zeros)), dev.Size()-off)])
	}
	dev.SetProfile(pmem.ProfileOptane)
	dev.ResetStats()

	e := &env{dev: dev}
	e.cfg = denova.Config{MaxInodes: maxInodes, Workers: dedupWorkers, NoDaemon: serial}
	if s.dedup {
		e.cfg.Mode = denova.ModeImmediate
	}
	e.cfg.Staging.MaxPages = s.staging
	fs, err := denova.Mkfs(dev, e.cfg)
	if err != nil {
		return nil, fmt.Errorf("mkfs: %w", err)
	}
	e.fs = fs
	if !serial {
		e.linger = newLingerLog()
		fs.SetLingerHook(e.linger.observe)
	}

	clients := s.clients
	if serial {
		clients = 1
	}
	if !s.wire {
		for i := 0; i < clients; i++ {
			e.targets = append(e.targets, &inproc{fs: fs, paths: paths, files: make([]*denova.File, len(paths))})
		}
		return e, nil
	}
	e.srv = server.New(fs, server.Config{Workers: serverWorkers})
	addr, err := e.srv.Start("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("server start: %w", err)
	}
	for i := 0; i < clients; i++ {
		c, err := client.Dial(addr, client.Options{RetrySeed: int64(i) + 1})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.conns = append(e.conns, c)
		e.targets = append(e.targets, &overWire{c: c, paths: paths, handles: make([]denova.Handle, len(paths))})
	}
	return e, nil
}

// close tears the environment down without any clean-shutdown work:
// connections, server, then the daemon and flusher goroutines.
func (e *env) close() {
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
	if e.fs != nil {
		e.fs.UnmountDirty()
		e.fs = nil
	}
}

// crashAndRemount pulls the plug (every unflushed cache line is lost) and
// mounts what the media held. The environment is dead afterwards.
func (e *env) crashAndRemount() (*denova.FS, *denova.RecoveryInfo, error) {
	e.close()
	img := e.dev.CrashImage(pmem.CrashDropDirty, 0)
	e.dev = nil
	cfg := e.cfg
	cfg.NoDaemon = true
	return denova.Mount(img, cfg)
}

// openAll builds an in-process target over a mounted file system with every
// live slot opened, for the read-back after remount.
func openAll(fs *denova.FS, paths []string, live func(key int) bool) (*inproc, error) {
	t := &inproc{fs: fs, paths: paths, files: make([]*denova.File, len(paths))}
	for key := range paths {
		if !live(key) {
			continue
		}
		f, err := fs.Open(paths[key])
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", paths[key], err)
		}
		t.files[key] = f
	}
	return t, nil
}

// mountSim sums the modelled media time of a mount's passes.
func mountSim(info *denova.RecoveryInfo) time.Duration {
	var ns int64
	for _, p := range info.Passes {
		ns += p.Pmem.SimLatencyNs
	}
	return time.Duration(ns)
}

// lingerLog collects DWQ residence times from the dedup workers into a
// pre-allocated slice; samples past its capacity are counted and dropped.
type lingerLog struct {
	n  atomic.Int64
	ns []int64
}

func newLingerLog() *lingerLog { return &lingerLog{ns: make([]int64, 1<<20)} }

func (l *lingerLog) observe(d time.Duration) {
	if i := l.n.Add(1) - 1; i < int64(len(l.ns)) {
		l.ns[i] = int64(d)
	}
}

// since returns the samples recorded after the first `from` ones. Call it
// only once the dedup queue is drained.
func (l *lingerLog) since(from int64) []int64 {
	return l.ns[min(from, int64(len(l.ns))):min(l.n.Load(), int64(len(l.ns)))]
}

// counters is everything the layers count, sampled at a phase boundary.
// FS.Stats and FS.Metrics walk every file mapping, so this is never taken
// inside a timed interval.
type counters struct {
	at     time.Time
	dev    pmem.Stats
	fs     denova.Stats
	met    denova.MetricsSnapshot
	mem    runtime.MemStats
	linger int64
}

func (e *env) sample() counters {
	c := counters{at: time.Now(), dev: e.dev.Stats(), fs: e.fs.Stats(), met: e.fs.Metrics()}
	if e.linger != nil {
		c.linger = e.linger.n.Load()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// histMean is the mean of a registry histogram over the interval between
// two samples, in microseconds. A name the registry does not have reports 0,
// never an error; such a value can never carry a claim.
func histMean(a, b denova.MetricsSnapshot, name string) float64 {
	ha, hb := a.Histograms[name], b.Histograms[name]
	return ratio(float64(hb.SumNs-ha.SumNs), float64(hb.Count-ha.Count)) / 1e3
}

// busyNs sums the dedup workers' time inside batches.
func busyNs(st denova.Stats) int64 {
	var ns int64
	for _, w := range st.Workers {
		ns += w.BusyNs
	}
	return ns
}

// codecCost runs one op's request and response values through the wire
// codec alone and adds the four times and two frame sizes to acc. data is
// the op's payload (write, append) or result (read).
func codecCost(acc *codecAcc, kind workload.OpKind, path string, off, size int64, data []byte) error {
	req := wire.Request{ID: 1}
	resp := wire.Response{ID: 1}
	switch kind {
	case workload.OpCreate:
		req.Op, req.Path = wire.OpCreate, path
		resp.Handle = 1
	case workload.OpWrite, workload.OpAppend:
		req.Op, req.Handle, req.Off, req.Data = wire.OpWrite, 1, uint64(off), data
		resp.N = uint32(len(data))
	case workload.OpRead:
		req.Op, req.Handle, req.Off, req.Size = wire.OpRead, 1, uint64(off), uint64(size)
		resp.Data = data
	case workload.OpStat:
		req.Op, req.Handle = wire.OpStat, 1
		resp.Info.Size = size
	case workload.OpTruncate:
		req.Op, req.Handle, req.Size = wire.OpTruncate, 1, uint64(size)
	case workload.OpDelete:
		req.Op, req.Path = wire.OpRemove, path
	}
	resp.Op = req.Op

	t0 := time.Now()
	reqFrame, err := wire.EncodeRequest(&req)
	t1 := time.Now()
	if err != nil {
		return err
	}
	_, err = wire.DecodeRequest(reqFrame[4:])
	t2 := time.Now()
	if err != nil {
		return err
	}
	respFrame, err := wire.EncodeResponse(&resp)
	t3 := time.Now()
	if err != nil {
		return err
	}
	_, err = wire.DecodeResponse(respFrame[4:])
	t4 := time.Now()
	if err != nil {
		return err
	}
	k := &acc[kind]
	k.n++
	for i, d := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)} {
		k.ns[i] += d
	}
	k.reqBytes += int64(len(reqFrame))
	k.respBytes += int64(len(respFrame))
	return nil
}

// codecStat is the codec cost of a set of ops: time in each of the four
// calls (encode request, decode request, encode response, decode response)
// and frame bytes each way.
type codecStat struct {
	n                   int64
	ns                  [4]time.Duration
	reqBytes, respBytes int64
}

func (c *codecStat) add(o codecStat) {
	c.n += o.n
	for i := range c.ns {
		c.ns[i] += o.ns[i]
	}
	c.reqBytes += o.reqBytes
	c.respBytes += o.respBytes
}

// perOp is x per op of the set.
func (c codecStat) perOp(x int64) float64 { return ratio(float64(x), float64(c.n)) }

// codecAcc accumulates codec cost per trace op kind.
type codecAcc [numKinds]codecStat

// hostCost measures what the simulator itself burns per device call:
// (wall - modelled media time) / calls, on a scratch Optane device that
// nothing else touches.
type hostCost struct{ read4k, ntStore4k, flushFence, persistStore64 float64 } // ns per call

func measureHostCost(calls int) hostCost {
	const span = 16 << 20
	dev := denova.NewDevice(span, pmem.ProfileZero)
	page := make([]byte, pmem.PageSize)
	for off := int64(0); off < span; off += pmem.PageSize {
		dev.WriteNT(off, page)
	}
	dev.SetProfile(pmem.ProfileOptane)
	per := func(fn func(i int64)) float64 {
		dev.ResetStats()
		start := time.Now()
		for i := int64(0); i < int64(calls); i++ {
			fn(i)
		}
		wall := time.Since(start)
		return float64(wall.Nanoseconds()-dev.Stats().SimLatencyNs) / float64(calls)
	}
	const pages = span / pmem.PageSize
	return hostCost{
		read4k:    per(func(i int64) { dev.Read(i%pages*pmem.PageSize, page) }),
		ntStore4k: per(func(i int64) { dev.WriteNT(i%pages*pmem.PageSize, page) }),
		flushFence: per(func(i int64) {
			dev.Flush(i%pages*pmem.PageSize, pmem.CacheLineSize)
			dev.Fence()
		}),
		persistStore64: per(func(i int64) { dev.PersistStore64(i%pages*pmem.PageSize, uint64(i)) }),
	}
}
