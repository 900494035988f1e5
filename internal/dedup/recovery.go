package dedup

import (
	"denova/internal/fact"
	"denova/internal/nova"
)

// RecoveryReport summarizes the dedup-level recovery of §V-C.
type RecoveryReport struct {
	// Resumed counts in-process write entries whose transactions were
	// completed from step ⑥ (Inconsistency Handling II).
	Resumed int
	// Requeued counts dedupe_needed entries put back on the DWQ
	// (Inconsistency Handling I and III).
	Requeued int
	// RestoredFromSnapshot is true when the DWQ came from the clean-
	// shutdown save area rather than the log scan.
	RestoredFromSnapshot bool
	// Fact carries the FACT-level repair counters.
	Fact fact.RecoverStats
	// ScrubDropped counts FACT entries invalidated because their block was
	// reclaimed by the rebuilt free list (§V-C2).
	ScrubDropped int
	// Passes is the per-phase timing/device-access breakdown of the dedup
	// recovery, in execution order. denova.Mount appends it to the nova
	// pass list so a full mount reads as one timeline.
	Passes []nova.RecoveryPass
}

// Recover brings the dedup state machine up after a mount, in the order
// the paper's failure analysis requires. Each step is one pass of the
// mount timeline:
//
//   - fact-chains: FACT chain repair (commit flags, prevs, ghosts) and the
//     live set (fact.Table.WalkChains).
//   - dedup-resume: read the in-process write entries (Handling II) and
//     count their page references per block.
//   - fact-sweep: one sweep of the FACT (fact.Table.Sweep) that clears
//     orphans, rebuilds the free list and the delete pointers, resumes
//     each live entry's counted transactions from step ⑥ by moving them
//     into its RFC, discards the UCs of transactions that never reached
//     the log commit, and scrubs entries whose block the recovered free
//     list reclaimed (§V-C2); then the resumed entries advance to
//     dedupe_complete. A table the sweep finds corrupt (an unreachable
//     entry still holding references) fails the recovery here. The flags
//     move only after the counts are durable, and the sweep moves at most
//     the pending UC, so a crash during recovery resumes nothing twice.
//   - dwq-rebuild: from the clean-shutdown snapshot when one is valid,
//     otherwise from the dedupe_needed entries found by the log scan
//     (Handling I/III).
func Recover(e *Engine, scan *nova.ScanResult) (RecoveryReport, error) {
	var rep RecoveryReport
	fs, table := e.fs, e.table
	pass := func(name string, fn func()) {
		_ = nova.TimePass(fs.Dev, &rep.Passes, name, func() error { fn(); return nil })
	}

	var chains *fact.Chains
	pass("fact-chains", func() { chains = table.WalkChains() })

	var resumed []uint64 // device offsets of the resumed write entries
	refs := make(map[uint64]int)
	pass("dedup-resume", func() {
		for _, ref := range scan.InProcess {
			if _, ok := fs.Inode(ref.Ino); !ok {
				continue // the file was an orphan; its blocks are gone
			}
			we, err := nova.ReadWriteEntry(fs.Dev, ref.Off)
			if err != nil || we.Ino != ref.Ino || we.DedupeFlag != nova.FlagInProcess {
				continue
			}
			// For a target entry, unique pages hold their own FACT entries
			// and duplicate pages' original blocks have none (their
			// canonical counterparts are counted through the appended
			// one-page entries, which are in this list too).
			for i := range uint64(we.NumPages) {
				refs[we.Block+i]++
			}
			resumed = append(resumed, ref.Off)
		}
	})

	// Blocks the scrub drops are already free in the rebuilt allocator
	// (they were absent from the usage bitmap), so no free-list action is
	// needed.
	err := nova.TimePass(fs.Dev, &rep.Passes, "fact-sweep", func() (err error) {
		rep.Fact, rep.ScrubDropped, err = table.Sweep(chains, refs, func(b uint64) bool {
			idx := int64(b) - int64(fs.Geo.DataStartBlock)
			return idx >= 0 && idx < int64(len(scan.UsedBlocks)) && scan.UsedBlocks[idx]
		})
		if err != nil {
			return err
		}
		for _, off := range resumed {
			nova.SetDedupeFlag(fs.Dev, off, nova.FlagComplete)
		}
		rep.Resumed = len(resumed)
		return nil
	})
	if err != nil {
		return rep, err
	}

	pass("dwq-rebuild", func() {
		if scan.Clean && !scan.DWQOverflow {
			if n, err := e.dwq.Restore(fs.Dev, fs.Geo.DWQSaveOff, fs.Geo.DWQSavePages); err == nil {
				rep.RestoredFromSnapshot = true
				rep.Requeued = n
			}
		}
		if !rep.RestoredFromSnapshot {
			for _, ref := range scan.NeedDedup {
				e.dwq.Enqueue(Node{Ino: ref.Ino, EntryOff: ref.Off})
				rep.Requeued++
			}
		}
		// The snapshot is consumed either way; never restore it twice.
		Invalidate(fs.Dev, fs.Geo.DWQSaveOff)
		nova.SetDWQOverflowFlag(fs.Dev, false)
	})
	return rep, nil
}

// SaveDWQ persists the queue at clean unmount and raises the overflow flag
// if the save area could not hold everything.
func SaveDWQ(e *Engine) (saved int, overflow bool) {
	saved, overflow = e.dwq.Save(e.fs.Dev, e.fs.Geo.DWQSaveOff, e.fs.Geo.DWQSavePages)
	nova.SetDWQOverflowFlag(e.fs.Dev, overflow)
	return saved, overflow
}
