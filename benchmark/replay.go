package main

import (
	"fmt"
	"time"

	"denova/internal/workload"
)

// Op kinds as the trace numbers them, plus the COMMIT a wire client issues
// on its own cadence.
const (
	numKinds   = 7
	kindCommit = numKinds
)

var kindNames = [numKinds]string{"create", "write", "append", "read", "stat", "delete", "truncate"}

// replayer is one closed-loop client: it issues its next op when the
// previous one has returned. Every op is three steps — prepare (synthesise
// the payload), call (the only timed step), check (compare with the oracle,
// then update it) — so that generator and oracle work never sit inside a
// timed interval. In steady state none of the three allocates.
type replayer struct {
	id, of int // this client replays the slots with key % of == id
	tr     *workload.Trace
	tgt    target
	gen    *content
	or     *oracle
	files  int // slots per tenant, to number slots across tenants

	wbuf, rbuf []byte // payload and read buffers, sized for the largest op

	// result of the last call, consumed by check
	got  []byte
	size int64
	err  error

	ops       int64 // trace ops replayed
	userBytes int64 // bytes handed to write and append
	userPages int64 // the same in 4 KB pages, a partial page counting as one
	failed    int64
	firstErr  error
}

func newReplayer(s *spec, p workload.Profile, id, of int, tgt target, gen *content, or *oracle) *replayer {
	return &replayer{
		id: id, of: of, tr: p.Trace(), tgt: tgt, gen: gen, or: or, files: p.FilesPerTenant,
		wbuf: make([]byte, s.maxFileBytes()), rbuf: make([]byte, s.maxFileBytes()),
	}
}

func (r *replayer) key(op workload.Op) int { return op.Tenant*r.files + op.File }

// next returns the client's next op. Every client walks the whole trace and
// keeps its own slots, which preserves per-file order without any sharing.
func (r *replayer) next() workload.Op {
	for {
		op, ok := r.tr.Next()
		if !ok {
			panic("benchmark: trace exhausted")
		}
		if r.key(op)%r.of == r.id {
			return op
		}
	}
}

func (r *replayer) prepare(op workload.Op) {
	if op.Kind == workload.OpWrite || op.Kind == workload.OpAppend {
		key := r.key(op)
		r.gen.fill(r.wbuf[:op.Size], key, r.or.inc[key], op.Vers)
	}
}

func (r *replayer) call(op workload.Op) {
	key := r.key(op)
	r.got, r.size = nil, 0
	switch op.Kind {
	case workload.OpCreate:
		r.err = r.tgt.create(key)
	case workload.OpWrite, workload.OpAppend:
		r.err = r.tgt.write(key, op.Off, r.wbuf[:op.Size])
	case workload.OpRead:
		r.got, r.err = r.tgt.read(key, op.Off, r.rbuf[:op.Size])
	case workload.OpStat:
		r.size, r.err = r.tgt.stat(key)
	case workload.OpDelete:
		r.err = r.tgt.remove(key)
	case workload.OpTruncate:
		r.err = r.tgt.truncate(key, op.Size)
	}
}

func (r *replayer) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *replayer) check(op workload.Op) {
	key := r.key(op)
	r.ops++
	if r.err != nil {
		r.fail(fmt.Errorf("%s slot %d: %w", kindNames[op.Kind], key, r.err))
		return
	}
	switch op.Kind {
	case workload.OpCreate:
		r.or.create(key)
	case workload.OpWrite, workload.OpAppend:
		r.or.write(key, op.Off, r.wbuf[:op.Size])
		r.userBytes += op.Size
		r.userPages += (op.Size + chunk - 1) / chunk
	case workload.OpRead:
		if !r.or.matches(key, op.Off, op.Size, r.got) {
			r.fail(fmt.Errorf("read slot %d [%d,+%d): content differs from the oracle (%d bytes returned)",
				key, op.Off, op.Size, len(r.got)))
		}
	case workload.OpStat:
		if r.size != r.or.size[key] {
			r.fail(fmt.Errorf("stat slot %d: size %d, oracle %d", key, r.size, r.or.size[key]))
		}
	case workload.OpDelete:
		r.or.size[key] = -1
	case workload.OpTruncate:
		r.or.size[key] = op.Size
	}
}

// do replays one op and returns the duration of its call.
func (r *replayer) do(op workload.Op) time.Duration {
	r.prepare(op)
	t0 := time.Now()
	r.call(op)
	d := time.Since(t0)
	r.check(op)
	return d
}

// latLog is one client's pre-allocated record of every timed call.
type latLog struct {
	ns    []int32
	kind  []uint8
	timed time.Duration // sum of all timed intervals
}

func newLatLog(capacity int) *latLog {
	return &latLog{ns: make([]int32, 0, capacity), kind: make([]uint8, 0, capacity)}
}

func (l *latLog) full() bool { return len(l.ns) == cap(l.ns) }

func (l *latLog) add(kind uint8, d time.Duration) {
	l.ns = append(l.ns, int32(min(d, 1<<31-1)))
	l.kind = append(l.kind, kind)
	l.timed += d
}

// measure runs the client until the deadline (or until its log is full),
// timing every call. commitEvery > 0 adds the workload's own COMMIT cadence;
// those calls are timed and counted into the client's busy time, but are
// not trace ops.
func (r *replayer) measure(deadline time.Time, log *latLog, commitEvery int) {
	for n := 1; !log.full() && time.Now().Before(deadline); n++ {
		op := r.next()
		log.add(uint8(op.Kind), r.do(op))
		if commitEvery > 0 && n%commitEvery == 0 && !log.full() {
			t0 := time.Now()
			err := r.tgt.sync()
			log.add(kindCommit, time.Since(t0))
			if err != nil {
				r.fail(fmt.Errorf("commit: %w", err))
			}
		}
	}
}

// warm replays a fixed number of ops untimed, on the workload's cadence.
func (r *replayer) warm(ops, commitEvery int) {
	for n := 1; n <= ops; n++ {
		r.do(r.next())
		if commitEvery > 0 && n%commitEvery == 0 {
			if err := r.tgt.sync(); err != nil {
				r.fail(fmt.Errorf("commit: %w", err))
			}
		}
	}
}

// readBack reads every live slot of the oracle in full through tgt and
// returns how many slots it checked and how many differed. mine selects the
// slots this target holds handles for.
func readBack(tgt target, or *oracle, buf []byte, mine func(key int) bool) (checked, bad int64, first error) {
	for key := range or.size {
		if !or.live(key) || !mine(key) {
			continue
		}
		checked++
		want := or.size[key]
		size, err := tgt.stat(key)
		var got []byte
		if err == nil && size == want && want > 0 {
			got, err = tgt.read(key, 0, buf[:want])
		}
		switch {
		case err != nil:
			err = fmt.Errorf("read-back slot %d: %w", key, err)
		case size != want:
			err = fmt.Errorf("read-back slot %d: size %d, oracle %d", key, size, want)
		case want > 0 && !or.matches(key, 0, want, got):
			err = fmt.Errorf("read-back slot %d: content differs from the oracle", key)
		}
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	return checked, bad, first
}
