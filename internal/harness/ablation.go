package harness

import (
	"denova"
	"math/rand"
	"time"

	"denova/internal/dedup"
	"denova/internal/fact"
	"denova/internal/pmem"
	"denova/internal/workload"
)

// Ablations for the design choices DESIGN.md calls out.

// ReorderAblation compares average FACT chain walk length with reordering
// on vs off, under a skewed (Zipf) duplicate popularity — the situation
// §IV-E optimizes for.
type ReorderAblation struct {
	AvgWalkOn  float64
	AvgWalkOff float64
	ReordersOn int64
}

// RunReorderAblation drives a FACT with a deliberately small prefix space
// (so fingerprints collide into IAA chains, the §IV-E scenario) under
// Zipf-skewed duplicate popularity, with reordering enabled and disabled,
// and reports the average lookup walk length of the hot phase. On a
// production-sized FACT the prefix space is so large that chains stay
// short (that is the DAA design working); reordering only matters when
// collisions pile up, which this ablation constructs on purpose.
func RunReorderAblation(lookups int) (ReorderAblation, error) {
	run := func(disable bool) (float64, int64, error) {
		// Deterministic deep chains: 8 prefixes × 8 entries each. The
		// fingerprints are crafted (prefix in the top bits, tag in the
		// tail) — the ablation measures chain walks, not hashing.
		const prefixBits = 6
		const chains, depth = 8, 8
		const pool = chains * depth
		dev := pmem.New(64<<20, pmem.ProfileZero)
		dataStart := uint64(1024)
		table := fact.New(dev, fact.Config{Base: 0, PrefixBits: prefixBits, DataStart: dataStart, NumData: pool})
		table.ZeroFill()
		table.ReorderEnabled = !disable
		table.DepthThreshold = 2
		table.RFCThreshold = 2

		fps := make([]fact.FP, pool)
		for i := range fps {
			var fp fact.FP
			fp[0] = byte(i%chains) << (8 - prefixBits)
			fp[18] = byte(i / chains)
			fp[19] = byte(i)
			fps[i] = fp
		}
		// Insert every chunk once (unique phase), recycling block slots —
		// only the chains matter here.
		for i, fp := range fps {
			res, err := table.BeginTxn(fp, dataStart+uint64(i))
			if err != nil {
				return 0, 0, err
			}
			table.CommitTxn(res.Idx)
		}
		// Hot phase: Zipf-popular duplicate lookups; the daemon's reorder
		// service runs between batches.
		rng := rand.New(rand.NewSource(7))
		zipf := rand.NewZipf(rng, 1.2, 1, pool-1)
		table.ResetStats()
		for i := 0; i < lookups; i++ {
			// Permute the Zipf rank so popularity is independent of insert
			// order (rank 0 would otherwise always be the chain head, where
			// reordering has nothing to do).
			rank := zipf.Uint64()
			fp := fps[(rank*37+23)%pool]
			res, err := table.BeginTxn(fp, dataStart)
			if err != nil {
				return 0, 0, err
			}
			table.CommitTxn(res.Idx)
			if i%64 == 63 {
				for _, p := range table.PendingReorders() {
					table.ReorderChain(p)
				}
			}
		}
		st := table.Stats()
		return st.AvgWalk(), st.Reorders, nil
	}
	on, reorders, err := run(false)
	if err != nil {
		return ReorderAblation{}, err
	}
	off, _, err := run(true)
	if err != nil {
		return ReorderAblation{}, err
	}
	return ReorderAblation{AvgWalkOn: on, AvgWalkOff: off, ReordersOn: reorders}, nil
}

// DeletePointerAblation compares reclaiming a block through the delete
// pointer — the production path, fact.DecRefBatch with a batch of one —
// against the alternative the paper rejects (§IV-C): re-reading the 4 KB
// block and re-fingerprinting it to look the entry up by content. The
// device-access columns are dev.Stats() deltas per block, so they report
// what the reclaim path really does, not an imitation of it.
type DeletePointerAblation struct {
	ViaDeletePtr   time.Duration // per decrement through the reclaim path
	ViaReFingerprt time.Duration // per resolution by content
	NVMReadsReFP   int64         // cache-line reads per resolution by content

	// A decrement that leaves references behind (RFC 2 -> 1).
	DecRefReads, DecRefFlushed float64 // line reads, flushed lines
	// The last reference: the entry is removed from its chain (RFC 1 -> 0).
	RemoveReads, RemoveFlushed float64
}

// RunDeletePointerAblation measures both strategies over the same set of
// deduplicated blocks, each referenced twice.
func RunDeletePointerAblation(blocks int, prof pmem.LatencyProfile) (DeletePointerAblation, error) {
	devSize := int64(blocks)*pmem.PageSize*4 + (32 << 20)
	dev := pmem.New(devSize, prof)
	n := 16
	for (1 << n) < blocks {
		n++
	}
	dataStart := uint64(devSize/pmem.PageSize) - uint64(blocks) - 1
	table := fact.New(dev, fact.Config{Base: 0, PrefixBits: n, DataStart: dataStart, NumData: int64(blocks)})
	table.ZeroFill()

	// Populate: one FACT entry per block with distinct content, RFC 2.
	spec := workload.Spec{Name: "abl", FileSize: pmem.PageSize, NumFiles: blocks, DupRatio: 0, Seed: 9}
	gen := workload.NewGenerator(spec)
	for i := 0; i < blocks; i++ {
		data := gen.FileData(i)
		block := dataStart + uint64(i)
		dev.WriteNT(int64(block)*pmem.PageSize, data)
		for ref := 0; ref < 2; ref++ {
			res, err := table.BeginTxn(dedup.Strong(data), block)
			if err != nil {
				return DeletePointerAblation{}, err
			}
			table.CommitTxn(res.Idx)
		}
	}

	var out DeletePointerAblation
	// Strategy 2 first (it leaves the table alone): read the block back and
	// fingerprint it.
	page := make([]byte, pmem.PageSize)
	before := dev.Stats()
	start := time.Now()
	for i := 0; i < blocks; i++ {
		block := dataStart + uint64(i)
		dev.Read(int64(block)*pmem.PageSize, page)
		fp := dedup.Strong(page)
		if _, _, ok := table.Lookup(fp); !ok {
			return out, errMissingEntry
		}
	}
	out.ViaReFingerprt = time.Since(start) / time.Duration(blocks)
	out.NVMReadsReFP = (dev.Stats().ReadLines - before.ReadLines) / int64(blocks)

	// Strategy 1: the reclaim path itself, one block per call so that no
	// block rides on a neighbour's delete-pointer read. The first pass
	// decrements, the second drops the last reference and removes the entry.
	release := func() (d pmem.Stats, wall time.Duration, freed int) {
		one := make([]uint64, 1)
		before, start := dev.Stats(), time.Now()
		for i := 0; i < blocks; i++ {
			one[0] = dataStart + uint64(i)
			table.DecRefBatch(one, func(uint64) { freed++ })
		}
		return dev.Stats().Sub(before), time.Since(start), freed
	}
	per := func(lines int64) float64 { return float64(lines) / float64(blocks) }
	d, wall, freed := release()
	if freed != 0 {
		return out, errMissingEntry
	}
	out.ViaDeletePtr = wall / time.Duration(blocks)
	out.DecRefReads, out.DecRefFlushed = per(d.ReadLines), per(d.FlushedLines)
	if d, _, freed = release(); freed != blocks {
		return out, errMissingEntry
	}
	out.RemoveReads, out.RemoveFlushed = per(d.ReadLines), per(d.FlushedLines)
	return out, nil
}

var errMissingEntry = errFixed("harness: ablation entry missing")

type errFixed string

func (e errFixed) Error() string { return string(e) }

// EntrySizeAblation quantifies the cache-line-fit design (§IV-C padding):
// flush traffic per dedup transaction with 64 B entries (one line) versus a
// hypothetical 2-line entry, computed analytically from the measured flush
// counts of a real workload.
type EntrySizeAblation struct {
	FlushesPerTxn64B  float64 // measured
	FlushesPerTxn128B float64 // measured flushes + one extra per entry persist
	TxnCount          int64
}

// RunEntrySizeAblation runs a dedup-heavy workload and derives the flush
// amplification a 2-cache-line FACT entry would cost.
func RunEntrySizeAblation(files int) (EntrySizeAblation, error) {
	spec := workload.Small(files, 0.5)
	cfg := FSConfig{Mode: denova.ModeImmediate}
	opts := WriteOptions{Profile: pmem.ProfileZero, KeepFS: true}
	_, fs, err := RunWrite(cfg, spec, opts)
	if err != nil {
		return EntrySizeAblation{}, err
	}
	defer fs.Unmount()
	st := fs.Stats()
	txns := st.Fact.Commits
	if txns == 0 {
		return EntrySizeAblation{}, errFixed("harness: no dedup transactions ran")
	}
	flushes := float64(st.Device.FlushedLines)
	// Every entry-touching persist (insert fields, counts, links, commit)
	// would hit a second line if the entry spanned two.
	extra := float64(st.Fact.Inserts*2 + st.Fact.Commits + st.Fact.DupHits)
	return EntrySizeAblation{
		FlushesPerTxn64B:  flushes / float64(txns),
		FlushesPerTxn128B: (flushes + extra) / float64(txns),
		TxnCount:          txns,
	}, nil
}
