package denova

import (
	"denova/internal/dedup"
	"denova/internal/fact"
	"denova/internal/nova"
	"denova/internal/pmem"
)

// SpaceStats reports capacity and deduplication effectiveness.
type SpaceStats struct {
	// TotalBlocks / FreeBlocks describe the allocatable data region.
	TotalBlocks int64
	FreeBlocks  int64
	// LogicalPages is the number of file pages currently mapped (what the
	// user "sees"); PhysicalPages is the number of distinct data blocks
	// backing them. Savings = 1 - Physical/Logical.
	LogicalPages  int64
	PhysicalPages int64
}

// Savings returns the space saved by deduplication as a fraction of the
// logical data (0 when nothing is deduplicated).
func (s SpaceStats) Savings() float64 {
	if s.LogicalPages == 0 {
		return 0
	}
	return 1 - float64(s.PhysicalPages)/float64(s.LogicalPages)
}

// QueueStats describes the deduplication work queue: aggregate depth plus
// the per-shard breakdown the parallel pipeline exposes.
type QueueStats struct {
	Len      int   // nodes currently queued
	Peak     int   // high-water mark (DRAM footprint, §V-B2)
	Enqueued int64 // lifetime enqueues
	Dequeued int64 // lifetime dequeues
	Shards   []int // current depth of each inode shard
}

// GeometryInfo describes the on-device region sizes (for overhead
// reporting: how much of the device the FACT metadata costs).
type GeometryInfo struct {
	DeviceBytes int64 // total simulated device capacity
	FactBytes   int64 // FACT region (dedup metadata on PM)
	DataBytes   int64 // allocatable data region
}

// StatsSnapshot is the cheap control-plane snapshot: queue depths, worker
// utilization and device geometry, gathered without walking any file
// mappings (unlike Stats, which computes the space figures). All slices
// are defensive copies owned by the caller.
type StatsSnapshot struct {
	Queue    QueueStats         // zero value in ModeNone/ModeInline
	Workers  []dedup.WorkerStat // per-worker utilization; nil when no daemon runs
	Geometry GeometryInfo
}

// StatsSnapshot gathers the control-plane snapshot.
func (f *FS) StatsSnapshot() StatsSnapshot {
	var st StatsSnapshot
	g := f.fs.Geo
	st.Geometry = GeometryInfo{
		DeviceBytes: g.DevSize,
		FactBytes:   g.FactPages * 4096,
		DataBytes:   g.NumDataBlocks * 4096,
	}
	if f.engine != nil {
		q := f.engine.DWQ()
		enq, deq := q.Counts()
		st.Queue = QueueStats{
			Len:      q.Len(),
			Peak:     q.Peak(),
			Enqueued: enq,
			Dequeued: deq,
			// Copy even though ShardLens allocates today: the snapshot
			// contract must not depend on a lower layer's implementation.
			Shards: append([]int(nil), q.ShardLens()...),
		}
	}
	if f.daemon != nil {
		st.Workers = append([]dedup.WorkerStat(nil), f.daemon.WorkerStats()...)
	}
	return st
}

// Stats is a combined snapshot across all layers.
type Stats struct {
	Space   SpaceStats
	FS      nova.Stats
	Dedup   dedup.Stats        // zero value in ModeNone
	Fact    fact.Stats         // zero value in ModeNone
	Queue   QueueStats         // zero value in ModeNone/ModeInline
	Workers []dedup.WorkerStat // per-worker utilization; nil when no daemon runs
	Device  pmem.Stats
}

// Stats gathers a snapshot. It walks every file's mappings to compute the
// logical/physical page counts, so it is not free; call it between
// measurement phases, not inside them.
//
// The result is a point-in-time snapshot: every slice (Queue.Shards,
// Workers) is a defensive copy owned by the caller, safe to retain and
// read while writers, dedup workers, and GC keep running. Fields read at
// slightly different instants may be mutually inconsistent (e.g. Queue.Len
// vs the sum of Queue.Shards); each individual value was true at some
// moment during the call.
func (f *FS) Stats() Stats {
	var st Stats
	st.FS = f.fs.Stats()
	st.Device = f.dev.Stats()
	snap := f.StatsSnapshot()
	st.Queue = snap.Queue
	st.Workers = snap.Workers
	if f.engine != nil {
		st.Dedup = f.engine.Stats()
		st.Fact = f.table.Stats()
	}
	distinct := make(map[uint64]bool)
	var logical int64
	f.fs.WalkFiles(func(in *nova.Inode) {
		in.Lock()
		in.WalkMappingsLocked(func(pg, block, entryOff uint64) bool {
			logical++
			distinct[block] = true
			return true
		})
		in.Unlock()
	})
	st.Space = SpaceStats{
		TotalBlocks:   f.fs.Geo.NumDataBlocks,
		FreeBlocks:    f.fs.FreeBlocks(),
		LogicalPages:  logical,
		PhysicalPages: int64(len(distinct)),
	}
	return st
}

// CheckFACTInvariants validates the deduplication metadata table's
// structural invariants (test and crash-analysis helper). Returns nil in
// ModeNone.
func (f *FS) CheckFACTInvariants() error {
	if f.table == nil {
		return nil
	}
	return f.table.CheckInvariants()
}

// Fsck deep-checks the whole stack: NOVA-level invariants (log chains,
// radix-vs-log agreement, live counts, block accounting) and, in dedup
// modes, the FACT invariants. Unreachable blocks pinned by a FACT entry
// with a positive reference count are tolerated (RFC over-increments are
// legal until the scrubber repairs them, §V-C2).
func (f *FS) Fsck() error {
	var held func(uint64) bool
	if f.table != nil {
		held = func(b uint64) bool {
			idx, ok := f.table.DeletePtr(b)
			return ok && (f.table.RFC(idx) > 0 || f.table.UC(idx) > 0)
		}
	}
	if err := f.fs.Fsck(held); err != nil {
		return err
	}
	return f.CheckFACTInvariants()
}
