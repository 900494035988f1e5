// Package harness drives the paper's experiments end to end: it builds
// file systems in each evaluation model (§V-A), runs the fio-equivalent
// workloads against them with the paper's think-time discipline, and
// reports throughput, space savings, queue behaviour and device counters.
// Every table and figure of §V maps to a function here; cmd/denova-bench
// and bench_test.go are thin wrappers.
package harness

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"denova"
	"denova/internal/pmem"
	"denova/internal/workload"
)

// FSConfig selects an evaluation model (§V-A).
type FSConfig struct {
	Mode denova.Mode
	// N and M parameterize DENOVA-Delayed(n, m).
	N time.Duration
	M int
	// ScrubEvery forwards to the daemon (0 = no background scrubbing).
	ScrubEvery int
}

// Label renders the model name the way the paper does.
func (c FSConfig) Label() string {
	if c.Mode == denova.ModeDelayed {
		return fmt.Sprintf("DeNOVA-Delayed(%d,%d)", c.N.Milliseconds(), c.M)
	}
	switch c.Mode {
	case denova.ModeNone:
		return "Baseline NOVA"
	case denova.ModeInline:
		return "DeNOVA-Inline"
	case denova.ModeImmediate:
		return "DeNOVA-Immediate"
	}
	return c.Mode.String()
}

func (c FSConfig) denovaConfig() denova.Config {
	return denova.Config{
		Mode:          c.Mode,
		DelayInterval: c.N,
		DelayBatch:    c.M,
		ScrubEvery:    c.ScrubEvery,
	}
}

// Standard model line-up used by most figures.
func StandardModels() []FSConfig {
	return []FSConfig{
		{Mode: denova.ModeNone},
		{Mode: denova.ModeInline},
		{Mode: denova.ModeImmediate},
		{Mode: denova.ModeDelayed, N: 750 * time.Millisecond, M: 20000},
	}
}

// WriteResult is one write-throughput measurement.
type WriteResult struct {
	Model     string
	Workload  string
	DupRatio  float64
	Threads   int
	Files     int
	Bytes     int64
	Elapsed   time.Duration // write phase only
	DrainTime time.Duration // additional time for background dedup to finish
	Savings   float64       // post-drain space savings
	Dev       pmem.Stats    // device counters over the write phase
}

// MBps is the write-phase throughput in MiB/s.
func (r WriteResult) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / (1 << 20) / r.Elapsed.Seconds()
}

// MedianBy returns the result with the median key, typically throughput
// (wall-clock benchmark runs drift with GC and CPU-boost state; figure
// cells are measured over interleaved rounds and reduced with this).
func MedianBy[T any](rs []T, key func(T) float64) T {
	if len(rs) == 0 {
		var zero T
		return zero
	}
	sorted := append([]T(nil), rs...)
	sort.SliceStable(sorted, func(i, j int) bool { return key(sorted[i]) < key(sorted[j]) })
	return sorted[len(sorted)/2]
}

// WriteOptions tunes a write run.
type WriteOptions struct {
	Threads int
	// ThinkTime interleaves think time equal to each operation's I/O time
	// (the paper's 0.1 ms per 0.1 ms discipline, §V-B1).
	ThinkTime bool
	DevSize   int64
	Profile   pmem.LatencyProfile
	// KeepFS returns the mounted FS instead of discarding it (for chained
	// phases such as overwrite or read experiments).
	KeepFS bool
}

func (o *WriteOptions) fill(spec workload.Spec) {
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.DevSize == 0 {
		// Data + logs + FACT + headroom; no dedup in the worst case.
		o.DevSize = spec.TotalBytes()*3 + (64 << 20)
	}
	if o.Profile.Name == "" {
		o.Profile = pmem.ProfileOptane
	}
}

// RunWrite formats a fresh device, writes the workload with the requested
// thread count (files are partitioned across threads, fio numjobs style),
// and reports throughput. The returned FS is non-nil only with KeepFS.
func RunWrite(cfg FSConfig, spec workload.Spec, opts WriteOptions) (WriteResult, *denova.FS, error) {
	spec = spec.Normalized()
	opts.fill(spec)
	dev := denova.NewDevice(opts.DevSize, opts.Profile)
	fs, err := denova.Mkfs(dev, cfg.denovaConfig())
	if err != nil {
		return WriteResult{}, nil, err
	}
	gen := workload.NewGenerator(spec)

	// Pre-generate the data so generation cost stays out of the timing.
	files := make([][]byte, spec.NumFiles)
	for i := range files {
		files[i] = gen.FileData(i)
	}

	devBefore := dev.Stats()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, opts.Threads)
	for tid := 0; tid < opts.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := tid; i < spec.NumFiles; i += opts.Threads {
				opStart := time.Now()
				f, err := fs.Create(gen.FileName(i))
				if err != nil {
					errs <- err
					return
				}
				if _, err := f.WriteAt(files[i], 0); err != nil {
					errs <- err
					return
				}
				if opts.ThinkTime {
					workload.Think(time.Since(opStart))
				}
			}
		}(tid)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return WriteResult{}, nil, err
	default:
	}

	drainStart := time.Now()
	fs.Sync()
	drain := time.Since(drainStart)

	res := WriteResult{
		Model:     cfg.Label(),
		Workload:  spec.Name,
		DupRatio:  spec.DupRatio,
		Threads:   opts.Threads,
		Files:     spec.NumFiles,
		Bytes:     spec.TotalBytes(),
		Elapsed:   elapsed,
		DrainTime: drain,
		Savings:   fs.Stats().Space.Savings(),
		Dev:       dev.Stats().Sub(devBefore),
	}
	if opts.KeepFS {
		return res, fs, nil
	}
	fs.Unmount()
	return res, nil, nil
}

// RunOverwrite measures the Fig. 11 experiment: an untimed populate phase
// (deduplication drained), then a timed full overwrite of every file —
// which exercises the DeNOVA reclaim path (FACT delete-pointer lookups,
// RFC decrements, chain removals) on every shadowed page.
func RunOverwrite(cfg FSConfig, spec workload.Spec, opts WriteOptions) (write, overwrite WriteResult, err error) {
	opts.KeepFS = true
	write, fs, err := RunWrite(cfg, spec, opts)
	if err != nil {
		return write, overwrite, err
	}
	defer fs.Unmount()
	gen := workload.NewGenerator(spec)
	// Overwrite with shifted content (same dup structure, new bytes),
	// pre-generated so data synthesis stays outside the timed region.
	spec2 := spec
	spec2.Seed += 7777
	gen2 := workload.NewGenerator(spec2)
	newData := make([][]byte, spec.NumFiles)
	for i := range newData {
		newData[i] = gen2.FileData(i)
	}

	dev := fs.Device()
	devBefore := dev.Stats()
	start := time.Now()
	for i := 0; i < spec.NumFiles; i++ {
		opStart := time.Now()
		f, err := fs.Open(gen.FileName(i))
		if err != nil {
			return write, overwrite, err
		}
		if _, err := f.WriteAt(newData[i], 0); err != nil {
			return write, overwrite, err
		}
		if opts.ThinkTime {
			workload.Think(time.Since(opStart))
		}
	}
	elapsed := time.Since(start)
	drainStart := time.Now()
	fs.Sync()
	overwrite = WriteResult{
		Model:     cfg.Label(),
		Workload:  spec.Name + "-overwrite",
		DupRatio:  spec.DupRatio,
		Threads:   1,
		Files:     spec.NumFiles,
		Bytes:     spec.TotalBytes(),
		Elapsed:   elapsed,
		DrainTime: time.Since(drainStart),
		Savings:   fs.Stats().Space.Savings(),
		Dev:       dev.Stats().Sub(devBefore),
	}
	return write, overwrite, nil
}

// ReadResult is one Fig. 12 measurement.
type ReadResult struct {
	Model    string
	Scenario string // "read-only" or "read-write-mixed"
	Bytes    int64
	Elapsed  time.Duration
}

// MBps is the read throughput in MiB/s.
func (r ReadResult) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / (1 << 20) / r.Elapsed.Seconds()
}

// RunRead reproduces Fig. 12: two duplicate files A and B (fully deduped
// in the dedup models, so their pages are shared); one thread reads B while
// another either reads A (read-only) or overwrites A (mixed). The reported
// throughput is the B-reader's.
func RunRead(cfg FSConfig, fileBytes int64, mixed bool, opts WriteOptions) (ReadResult, error) {
	spec := workload.Spec{Name: "dup-twins", FileSize: int(fileBytes), NumFiles: 1, DupRatio: 0, Seed: 99}
	opts.fill(spec)
	opts.DevSize = fileBytes*6 + (64 << 20)
	dev := denova.NewDevice(opts.DevSize, opts.Profile)
	fs, err := denova.Mkfs(dev, cfg.denovaConfig())
	if err != nil {
		return ReadResult{}, err
	}
	defer fs.Unmount()
	gen := workload.NewGenerator(spec)
	data := gen.FileData(0)
	for _, name := range []string{"A", "B"} {
		f, err := fs.Create(name)
		if err != nil {
			return ReadResult{}, err
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			return ReadResult{}, err
		}
	}
	fs.Sync() // "we gave plenty of time for the DD to finish" (§V-B4)

	fa, _ := fs.Open("A")
	fb, _ := fs.Open("B")
	scenario := "read-only"
	if mixed {
		scenario = "read-write-mixed"
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the interfering thread on file A
		defer wg.Done()
		buf := make([]byte, 1<<20)
		spec2 := spec
		spec2.Seed = 123
		newData := workload.NewGenerator(spec2).FileData(0)
		pos := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if mixed {
				n := int64(1 << 20)
				if pos+n > fileBytes {
					pos = 0
				}
				fa.WriteAt(newData[pos:pos+n], pos)
				pos += n
			} else {
				if pos+int64(len(buf)) > fileBytes {
					pos = 0
				}
				fa.ReadAt(buf, pos)
				pos += int64(len(buf))
			}
		}
	}()

	// The measured thread reads B in full.
	buf := make([]byte, 1<<20)
	start := time.Now()
	var total int64
	for pos := int64(0); pos < fileBytes; pos += int64(len(buf)) {
		n, err := fb.ReadAt(buf, pos)
		if err != nil {
			close(stop)
			return ReadResult{}, err
		}
		total += int64(n)
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	return ReadResult{Model: cfg.Label(), Scenario: scenario, Bytes: total, Elapsed: elapsed}, nil
}
