package harness

import (
	"fmt"
	"time"

	"denova/internal/dedup"
	"denova/internal/fact"
	"denova/internal/nova"
	"denova/internal/obs"
	"denova/internal/pmem"
	"denova/internal/workload"
)

// WorkerScalingResult is one point of the dedup drain-throughput scaling
// curve: a pre-filled DWQ drained by a pool of N workers.
type WorkerScalingResult struct {
	Workers     int
	Nodes       int64 // DWQ nodes drained
	Pages       int64 // pages fingerprinted during the drain
	Elapsed     time.Duration
	NodesPerSec float64
	PerWorker   []dedup.WorkerStat
}

// ScalingSpec parameterizes MeasureWorkerScaling.
type ScalingSpec struct {
	Files        int     // files written in the fill phase
	PagesPerFile int     // pages per file, one write entry (= DWQ node) each
	DupRatio     float64 // fraction of duplicate pages in the workload
	Seed         int64
	Profile      pmem.LatencyProfile
}

// MeasureWorkerScaling measures background dedup drain throughput as a
// function of the daemon's worker-pool size. For each worker count it
// builds a fresh stack, fills it with the identical workload while the
// daemon is not yet running (so the DWQ holds every node), then starts an
// immediate-mode pool and times how long the pool alone takes to empty the
// queue. The speedup at N > 1 comes from overlapping SHA-1 fingerprinting
// with device accesses and from draining independent inode shards
// concurrently; correctness under the concurrency is covered by the
// torture and crash-sweep tests in internal/dedup.
func MeasureWorkerScaling(workerCounts []int, spec ScalingSpec) ([]WorkerScalingResult, error) {
	if spec.Files <= 0 || spec.PagesPerFile <= 0 {
		return nil, fmt.Errorf("harness: scaling spec needs Files and PagesPerFile > 0")
	}
	gen := workload.NewGenerator(workload.Spec{
		Name:     "scaling",
		FileSize: spec.PagesPerFile * pmem.PageSize,
		NumFiles: spec.Files,
		DupRatio: spec.DupRatio,
		Seed:     spec.Seed,
		PoolSize: 64,
	})
	results := make([]WorkerScalingResult, 0, len(workerCounts))
	for _, workers := range workerCounts {
		dataBytes := int64(spec.Files) * int64(spec.PagesPerFile) * pmem.PageSize
		dev := pmem.New(dataBytes*4+(32<<20), spec.Profile)
		fs, err := nova.Mkfs(dev, int64(spec.Files)+16)
		if err != nil {
			return nil, err
		}
		table := fact.New(dev, fact.Config{
			Base:       fs.Geo.FactOff,
			PrefixBits: fs.Geo.FactPrefixBits,
			DataStart:  fs.Geo.DataStartBlock,
			NumData:    fs.Geo.NumDataBlocks,
		})
		table.ZeroFill()
		engine := dedup.NewEngine(fs, table)

		// Fill phase: every page is its own write entry, so the queue holds
		// Files×PagesPerFile nodes spread across all inode shards.
		for i := 0; i < spec.Files; i++ {
			in, err := fs.Create(gen.FileName(i))
			if err != nil {
				return nil, err
			}
			data := gen.FileData(i)
			for pg := 0; pg < spec.PagesPerFile; pg++ {
				off := uint64(pg) * pmem.PageSize
				if _, err := fs.Write(in, off, data[off:off+pmem.PageSize], nova.FlagNeeded, obs.SpanContext{}); err != nil {
					return nil, err
				}
			}
		}
		queued := int64(engine.DWQ().Len())

		d := dedup.NewDaemon(engine, dedup.DaemonConfig{Interval: 0, Workers: workers})
		start := time.Now()
		d.Start()
		d.WaitIdle()
		elapsed := time.Since(start)
		d.Stop()

		if enq, deq := engine.DWQ().Counts(); deq != enq {
			return nil, fmt.Errorf("harness: workers=%d drained %d of %d nodes", workers, deq, enq)
		}
		st := engine.Stats()
		res := WorkerScalingResult{
			Workers:   workers,
			Nodes:     queued,
			Pages:     st.PagesScanned,
			Elapsed:   elapsed,
			PerWorker: d.WorkerStats(),
		}
		if elapsed > 0 {
			res.NodesPerSec = float64(queued) / elapsed.Seconds()
		}
		results = append(results, res)
	}
	return results, nil
}
