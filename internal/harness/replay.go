package harness

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"denova"
	"denova/internal/obs"
	"denova/internal/pmem"
	"denova/internal/server"
	"denova/internal/server/client"
	"denova/internal/workload"
)

// Target is the narrow driver the replay loop runs a trace through: create,
// write, read, stat, truncate, remove and sync over file paths, plus Open
// for the read-back, which must also work on files the target did not
// create (after a remount). A target keeps whatever handle each path
// needs; one target is used by one goroutine at a time.
type Target interface {
	Create(path string) error
	// Write covers overwrite and append: p lands at off.
	Write(path string, off int64, p []byte) error
	// Read returns the bytes at [off, off+len(buf)); it may use buf.
	Read(path string, off int64, buf []byte) ([]byte, error)
	Stat(path string) (size int64, err error)
	Truncate(path string, size int64) error
	Remove(path string) error
	// Sync blocks until staged writes are durable and queued dedup is done.
	Sync() error
	// Open resolves an existing file and returns its size.
	Open(path string) (size int64, err error)
}

// fsTarget drives a denova.FS directly.
type fsTarget struct {
	fs    *denova.FS
	files map[string]*denova.File
	// gcEvery > 0 forces a thorough log GC of the file just touched every
	// gcEvery ops, the final read-back's included — chaos for the
	// multi-tenant smoke. It lives here because the wire has no GC op.
	gcEvery, ops int
}

// done counts one trace op on path and runs the GCEvery cadence. A removed
// file has no log left to compact.
func (t *fsTarget) done(path string, err error) error {
	t.ops++
	if err != nil || t.gcEvery == 0 || t.ops%t.gcEvery != 0 || t.files[path] == nil {
		return err
	}
	if _, err := t.fs.ForceGC(path); err != nil {
		return fmt.Errorf("force-gc: %w", err)
	}
	return nil
}

func (t *fsTarget) Create(path string) error {
	f, err := t.fs.Create(path)
	t.files[path] = f
	return t.done(path, err)
}

func (t *fsTarget) Write(path string, off int64, p []byte) error {
	_, err := t.files[path].WriteAt(p, off)
	return t.done(path, err)
}

func (t *fsTarget) Read(path string, off int64, buf []byte) ([]byte, error) {
	n, err := t.files[path].ReadAt(buf, off)
	return buf[:n], t.done(path, err)
}

func (t *fsTarget) Stat(path string) (int64, error) {
	return t.files[path].Stat().Size, t.done(path, nil)
}

func (t *fsTarget) Truncate(path string, size int64) error {
	return t.done(path, t.files[path].Truncate(size))
}

func (t *fsTarget) Remove(path string) error {
	delete(t.files, path)
	return t.done(path, t.fs.Remove(path))
}

func (t *fsTarget) Sync() error {
	t.fs.Sync()
	return nil
}

func (t *fsTarget) Open(path string) (int64, error) {
	f, err := t.fs.Open(path)
	if err != nil {
		return 0, err
	}
	t.files[path] = f
	return f.Stat().Size, nil
}

// OverWire returns a Target that drives one client connection; Sync is a
// COMMIT.
func OverWire(c *client.Client) Target {
	return &wireTarget{c: c, handles: map[string]denova.Handle{}}
}

type wireTarget struct {
	c       *client.Client
	handles map[string]denova.Handle
}

func (t *wireTarget) Create(path string) error {
	h, err := t.c.Create(path)
	t.handles[path] = h
	return err
}

func (t *wireTarget) Write(path string, off int64, p []byte) error {
	n, err := t.c.Write(t.handles[path], uint64(off), p)
	if err == nil && n != len(p) {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(p))
	}
	return err
}

func (t *wireTarget) Read(path string, off int64, buf []byte) ([]byte, error) {
	return t.c.Read(t.handles[path], uint64(off), uint32(len(buf)))
}

func (t *wireTarget) Stat(path string) (int64, error) {
	info, err := t.c.Stat(t.handles[path])
	return info.Size, err
}

func (t *wireTarget) Truncate(path string, size int64) error {
	return t.c.Truncate(t.handles[path], uint64(size))
}

func (t *wireTarget) Remove(path string) error {
	delete(t.handles, path)
	return t.c.Remove(path)
}

func (t *wireTarget) Sync() error { return t.c.Commit() }

func (t *wireTarget) Open(path string) (int64, error) {
	h, info, err := t.c.Lookup(path)
	t.handles[path] = h
	return info.Size, err
}

// ProfileOptions tunes a profile run.
type ProfileOptions struct {
	// Threads is the replay thread count; ops are partitioned by file so
	// per-file trace order is preserved (fio numjobs style). Default 2.
	Threads int
	// DevSize overrides the simulated device size (default: sized from the
	// materialized trace's write volume plus headroom).
	DevSize int64
	// Profile selects the device latency model (default Optane).
	Profile pmem.LatencyProfile
	// GCEvery forces a thorough log-GC pass on the file just touched every
	// N ops per thread (0 = never). In-process only.
	GCEvery int
	// KeepFS returns the mounted FS instead of unmounting it.
	KeepFS bool
	// Server, when set, replays over loopback TCP instead of in process: a
	// denova-serve with this config in front of the FS and one client
	// connection per thread, so every op crosses the codec, admission
	// control and the op scheduler.
	Server *server.Config
}

func (o *ProfileOptions) fill(writeBytes int64, prof workload.Profile) {
	if o.Threads <= 0 {
		o.Threads = 2
	}
	if o.DevSize == 0 {
		// Every write allocates fresh pages until GC; triple the write
		// volume plus the live cap plus fixed headroom is comfortably
		// beyond worst case.
		o.DevSize = 3*writeBytes + prof.MaxBytes() + (64 << 20)
	}
	if o.Profile.Name == "" {
		o.Profile = pmem.ProfileOptane
	}
}

// ProfileResult is one profile run's measurement.
type ProfileResult struct {
	Profile string
	Ops     int64         // ops executed
	Elapsed time.Duration // replay phase
	Bytes   int64         // bytes written (write+append payloads)
	Read    int64         // bytes read back
	Savings float64       // dedup savings after the final sync
	// Latency holds one histogram summary per op type ("op.create",
	// "op.read", ...), timed around each replayed op.
	Latency map[string]obs.HistogramStats
	// Oracle is the expected post-run content of every live file
	// (path → bytes), retained so callers can re-verify after remount.
	Oracle map[string][]byte
}

// RunProfile formats a fresh device and replays the profile's op trace with
// opts.Threads targets — in process, or over loopback when opts.Server is
// set. The returned FS is non-nil only with KeepFS.
func RunProfile(cfg FSConfig, prof workload.Profile, opts ProfileOptions) (res ProfileResult, kept *denova.FS, err error) {
	prof = prof.Normalized()
	if opts.GCEvery > 0 && opts.Server != nil {
		return res, nil, fmt.Errorf("profile %q: GCEvery needs the in-process target (the wire has no GC op)", prof.Name)
	}
	ops, payloads, writeBytes, err := materialize(prof)
	if err != nil {
		return res, nil, err
	}
	opts.fill(writeBytes, prof)
	fs, err := denova.Mkfs(denova.NewDevice(opts.DevSize, opts.Profile), cfg.denovaConfig())
	if err != nil {
		return res, nil, err
	}
	// Registered first, so it runs after the connections and server close.
	defer func() {
		if err != nil || !opts.KeepFS {
			if uerr := fs.Unmount(); err == nil {
				err = uerr
			}
			kept = nil
		}
	}()

	for tn := 0; tn < prof.Tenants; tn++ {
		if dir := prof.TenantDir(tn); dir != "" {
			if err := fs.Mkdir(dir); err != nil {
				return res, nil, err
			}
		}
	}
	targets := make([]Target, opts.Threads)
	if opts.Server == nil {
		for i := range targets {
			targets[i] = &fsTarget{fs: fs, files: map[string]*denova.File{}, gcEvery: opts.GCEvery}
		}
	} else {
		srv := server.New(fs, *opts.Server)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return res, nil, err
		}
		defer srv.Close()
		for i := range targets {
			cl, err := client.Dial(addr, client.Options{})
			if err != nil {
				return res, nil, err
			}
			defer cl.Close()
			targets[i] = OverWire(cl)
		}
	}
	if res, err = replay(targets, prof, ops, payloads); err != nil {
		return res, nil, err
	}
	res.Profile = prof.Name
	res.Savings = fs.Stats().Space.Savings()
	return res, fs, nil
}

// Replay drives prof's whole trace through t, syncs, and reads every
// surviving file back; it returns the expected end state (path → bytes).
// The profile's tenant directories must already exist.
func Replay(t Target, prof workload.Profile) (map[string][]byte, error) {
	prof = prof.Normalized()
	ops, payloads, _, err := materialize(prof)
	if err != nil {
		return nil, err
	}
	res, err := replay([]Target{t}, prof, ops, payloads)
	return res.Oracle, err
}

// materialize expands the trace and pre-generates its payloads, so data
// synthesis stays out of the op timings.
func materialize(prof workload.Profile) (ops []workload.Op, payloads [][]byte, writeBytes int64, err error) {
	if prof.NumOps == 0 {
		return nil, nil, 0, fmt.Errorf("profile %q: empty trace (NumOps == 0)", prof.Name)
	}
	ops = prof.Ops()
	gen := prof.NewPayloadGen()
	payloads = make([][]byte, len(ops))
	for i, op := range ops {
		if op.Kind == workload.OpWrite || op.Kind == workload.OpAppend {
			payloads[i] = gen.Data(op)
			writeBytes += op.Size
		}
	}
	return ops, payloads, writeBytes, nil
}

// replay is the one replay loop. It runs ops through targets, one goroutine
// each: an op goes to the target its file slot maps to, so per-file trace
// order holds and no state is shared. Every read is checked against the
// content oracle as it happens; then one Sync through targets[0] (a COMMIT
// over the wire) drains the dedup queue and every surviving file is read
// back through it. It fills everything of a ProfileResult but Profile and
// Savings.
func replay(targets []Target, prof workload.Profile, ops []workload.Op, payloads [][]byte) (ProfileResult, error) {
	reg := obs.NewRegistry()
	var hists opHists
	for k := workload.OpCreate; k <= workload.OpTruncate; k++ {
		hists[k] = reg.Histogram("op." + k.String())
	}
	rs := make([]*replayer, len(targets))
	for i, t := range targets {
		rs[i] = &replayer{t: t, hists: &hists, oracle: map[string][]byte{}}
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, len(rs))
	for tid, r := range rs {
		wg.Add(1)
		go func(tid int, r *replayer) {
			defer wg.Done()
			for i, op := range ops {
				if (op.Tenant*prof.FilesPerTenant+op.File)%len(rs) != tid {
					continue
				}
				if err := r.run(prof.Path(op.Tenant, op.File), op, payloads[i]); err != nil {
					errs <- fmt.Errorf("thread %d op %d: %w", tid, i, err)
					return
				}
			}
		}(tid, r)
	}
	wg.Wait()
	res := ProfileResult{
		Ops:     int64(len(ops)),
		Elapsed: time.Since(start),
		Latency: map[string]obs.HistogramStats{},
		Oracle:  map[string][]byte{},
	}
	select {
	case err := <-errs:
		return ProfileResult{}, err
	default:
	}
	for k := workload.OpCreate; k <= workload.OpTruncate; k++ {
		if st := hists[k].Stats(); st.Count > 0 {
			res.Latency["op."+k.String()] = st
		}
	}
	for _, r := range rs {
		res.Bytes += r.bytesW
		res.Read += r.bytesR
		for path, data := range r.oracle {
			res.Oracle[path] = data
		}
	}
	if err := targets[0].Sync(); err != nil {
		return ProfileResult{}, err
	}
	if err := verify(targets[0], res.Oracle); err != nil {
		return ProfileResult{}, err
	}
	return res, nil
}

// opHists holds one latency histogram per op kind.
type opHists [workload.OpTruncate + 1]*obs.Histogram

// replayer is one replay thread: its target and the content oracle of the
// files it owns. A path is in the oracle exactly while it is open.
type replayer struct {
	t      Target
	hists  *opHists
	oracle map[string][]byte
	bytesW int64
	bytesR int64
}

func (r *replayer) run(path string, op workload.Op, payload []byte) error {
	cur, open := r.oracle[path]
	if !open && op.Kind != workload.OpCreate {
		return fmt.Errorf("%v %s: no open handle (trace order broken?)", op.Kind, path)
	}
	// A failed op ends the replay, so the oracle may move before err is seen.
	var err error
	start := time.Now()
	switch op.Kind {
	case workload.OpCreate:
		err = r.t.Create(path)
		r.oracle[path] = nil
	case workload.OpWrite, workload.OpAppend:
		err = r.t.Write(path, op.Off, payload)
		r.bytesW += int64(len(payload))
		cur = grow(cur, op.Off+int64(len(payload)))
		copy(cur[op.Off:], payload)
		r.oracle[path] = cur
	case workload.OpRead:
		var got []byte
		got, err = r.t.Read(path, op.Off, make([]byte, op.Size))
		r.bytesR += int64(len(got))
		if end := op.Off + op.Size; err == nil && (end > int64(len(cur)) || !bytes.Equal(got, cur[op.Off:end])) {
			err = fmt.Errorf("%d bytes read diverge from the %d-byte oracle", len(got), len(cur))
		}
	case workload.OpStat:
		var size int64
		size, err = r.t.Stat(path)
		if err == nil && size != int64(len(cur)) {
			err = fmt.Errorf("size %d, oracle %d", size, len(cur))
		}
	case workload.OpDelete:
		err = r.t.Remove(path)
		delete(r.oracle, path)
	case workload.OpTruncate:
		err = r.t.Truncate(path, op.Size)
		r.oracle[path] = grow(cur[:min(op.Size, int64(len(cur)))], op.Size)
	default:
		err = errors.New("unknown op kind")
	}
	if err != nil {
		return fmt.Errorf("%v %s off %d size %d: %w", op.Kind, path, op.Off, op.Size, err)
	}
	r.hists[op.Kind].Observe(time.Since(start))
	return nil
}

// grow returns b extended with zeros to n bytes. It copies rather than
// reslices: a truncated oracle's spare capacity still holds the cut bytes.
func grow(b []byte, n int64) []byte {
	if int64(len(b)) >= n {
		return b
	}
	grown := make([]byte, n)
	copy(grown, b)
	return grown
}

// verify reads every oracle file back through t — resolved afresh with
// Open, in chunks a wire frame holds — and compares it with the expected
// bytes: a replay's end state, or what recovery rebuilt after a remount.
func verify(t Target, oracle map[string][]byte) error {
	const chunk = 1 << 20
	buf := make([]byte, chunk)
	for path, want := range oracle {
		size, err := t.Open(path)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", path, err)
		}
		if size != int64(len(want)) {
			return fmt.Errorf("oracle %s: size %d, want %d", path, size, len(want))
		}
		for off := 0; off < len(want); off += chunk {
			end := min(off+chunk, len(want))
			got, err := t.Read(path, int64(off), buf[:end-off])
			if err != nil {
				return fmt.Errorf("oracle %s@%d: read: %w", path, off, err)
			}
			if !bytes.Equal(got, want[off:end]) {
				return fmt.Errorf("oracle %s@%d: content diverges (%d/%d bytes)", path, off, len(got), end-off)
			}
		}
	}
	return nil
}
