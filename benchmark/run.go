package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// options are the knobs of one run.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	// setups is how often step 1 is repeated; setup_s is the median.
	setups int
	// wrap, when set, decorates every target the measured pass drives. The
	// self-test uses it to inject a corrupt read and a dropped write.
	wrap func(target) target
}

// maxOpsPerSec bounds the per-client latency log: no workload comes near
// this rate on one connection, and a log that fills up ends the measured
// phase early instead of allocating.
const maxOpsPerSec = 400_000

// mainResult is everything the measured (untraced) pass produced.
type mainResult struct {
	spec          *spec
	digestChecked bool
	setupS        float64

	wall     time.Duration // measured phase, start to last client done
	ops      int64         // trace ops completed in the measured phase
	opsPerS  float64       // sum over clients of ops / timed
	timedSum time.Duration // sum over clients of their timed intervals
	lat      [numKinds + 1][]int32
	written  int64 // bytes handed to write+append in the measured phase
	pages    int64 // the same in 4 KB pages

	start, end, drained counters // measured-phase boundaries; after the final sync
	liveHeap            uint64   // larger of the two boundaries' heap in use, each right after a collection
	drain               time.Duration
	linger              []int64 // sorted

	mountWall, mountSim time.Duration

	attempted, failed int64
	errs              []error
}

func (m *mainResult) note(n int64, err error) {
	m.failed += n
	if err != nil && len(m.errs) < 8 {
		m.errs = append(m.errs, err)
	}
}

func slotPaths(s *spec) []string {
	paths := make([]string, s.keys())
	for key := range paths {
		paths[key] = s.profile.Path(key/s.profile.FilesPerTenant, key%s.profile.FilesPerTenant)
	}
	return paths
}

// mainPass is steps 1 to 5 of the run protocol: set-up, warm-up, the
// measured phase with tracing off, and verification up to the remount of
// the crash image.
func mainPass(s *spec, o options) (*mainResult, error) {
	m := &mainResult{spec: s}
	var err error
	if m.digestChecked, err = s.checkDigest(o.seed); err != nil {
		return nil, err
	}
	prof := s.seeded(o.seed)
	paths := slotPaths(s)
	gen := newContent(prof)
	or := newOracle(s.keys(), s.maxFileBytes())

	// Step 1, repeated: only the last environment is used. The earlier
	// devices are returned to the OS first, so that memory during the run is
	// one device, not several.
	var e *env
	times := make([]float64, 0, o.setups)
	for i := 0; i < o.setups; i++ {
		if e != nil {
			e.close()
			e = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if e, err = setup(s, paths, false, o.quick); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	slices.Sort(times)
	m.setupS = times[len(times)/2]

	reps := make([]*replayer, len(e.targets))
	for i, tgt := range e.targets {
		if o.wrap != nil {
			tgt = o.wrap(tgt)
		}
		reps[i] = newReplayer(s, prof, i, len(e.targets), tgt, gen, or)
	}
	each := func(fn func(i int, r *replayer)) {
		var wg sync.WaitGroup
		for i, r := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(i, r)
			}()
		}
		wg.Wait()
	}

	// Step 3: warm-up by op count, then drain so the measured phase starts
	// with an empty dedup queue and owns all the device work it counts.
	warm := s.warmOps
	if o.quick {
		warm /= quickDivisor
	}
	each(func(_ int, r *replayer) { r.warm(warm/len(reps), s.commitEvery) })
	if err := reps[0].tgt.sync(); err != nil {
		return nil, fmt.Errorf("sync after warm-up: %w", err)
	}
	var warmOps, warmBytes, warmPages int64
	for _, r := range reps {
		warmOps += r.ops
		warmBytes += r.userBytes
		warmPages += r.userPages
	}
	logs := make([]*latLog, len(reps))
	for i := range logs {
		logs[i] = newLatLog(int(o.seconds*maxOpsPerSec) + 1)
	}

	// Step 4: the measured phase. It starts from a collected heap.
	m.liveHeap = liveHeap()
	m.start = e.sample()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(o.seconds * float64(time.Second)))
	each(func(i int, r *replayer) { r.measure(deadline, logs[i], s.commitEvery) })
	m.wall = time.Since(t0)
	m.end = e.sample()
	m.liveHeap = max(m.liveHeap, liveHeap())

	t0 = time.Now()
	if err := reps[0].tgt.sync(); err != nil {
		m.note(1, fmt.Errorf("final sync: %w", err))
	}
	m.drain = time.Since(t0)
	m.drained = e.sample()
	if e.linger != nil {
		m.linger = slices.Clone(e.linger.since(m.start.linger))
		slices.Sort(m.linger)
	}

	for i, r := range reps {
		ops := int64(0)
		for j, k := range logs[i].kind {
			m.lat[k] = append(m.lat[k], logs[i].ns[j])
			if k != kindCommit {
				ops++
			}
		}
		m.opsPerS += float64(ops) / logs[i].timed.Seconds()
		m.timedSum += logs[i].timed
		m.ops += ops
		m.written += r.userBytes
		m.pages += r.userPages
		m.note(r.failed, r.firstErr)
	}
	m.written -= warmBytes
	m.pages -= warmPages
	for k := range m.lat {
		slices.Sort(m.lat[k])
	}
	m.attempted = m.ops + warmOps

	// Step 5: read everything back, live and then from the crash image.
	buf := make([]byte, s.maxFileBytes())
	for i, r := range reps {
		checked, bad, err := readBack(r.tgt, or, buf, func(key int) bool { return key%len(reps) == i })
		m.attempted += checked
		m.note(bad, err)
	}
	fs, info, err := e.crashAndRemount()
	e = nil
	m.attempted++
	if err != nil {
		m.note(1, fmt.Errorf("mount of the crash image: %w", err))
		return m, nil
	}
	defer fs.UnmountDirty()
	m.mountWall, m.mountSim = info.TotalWall(), mountSim(info)
	if got, want := len(fs.Names()), or.liveCount(); got != want {
		m.note(1, fmt.Errorf("crash image holds %d files, oracle %d", got, want))
	}
	tgt, err := openAll(fs, paths, or.live)
	if err != nil {
		m.note(1, err)
		return m, nil
	}
	checked, bad, err := readBack(tgt, or, buf, func(int) bool { return true })
	m.attempted += checked + 1
	m.note(bad, err)
	if err := fs.Fsck(); err != nil {
		m.note(1, fmt.Errorf("fsck of the crash image: %w", err))
	}
	return m, nil
}

// liveHeap collects and returns the heap then in use: what the run holds,
// without the garbage GOGC lets pile up between collections.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}
