// Command crashsim mechanizes the paper's §V-C consistency and failure
// analysis: instead of arguing over a handful of hand-picked crash windows,
// it sweeps an injected crash across EVERY persist point of the
// deduplication and reclamation paths, recovers each truncated image, and
// checks the §V-C invariants:
//
//	I1  file contents readable and correct after recovery,
//	I2  FACT structural invariants hold (chains, counts, delete pointers),
//	I3  no update count survives recovery,
//	I4  deduplication can resume and complete after recovery,
//	I5  shared pages are never lost while still referenced.
//
// Scenarios: dedup (crash during the Fig. 6 transaction), reclaim (crash
// while overwriting deduplicated shared pages), reorder (crash during the
// Fig. 7 IAA chain reordering), mixed (random multi-file workload). The
// eviction flag additionally randomizes which unflushed cache lines persist
// at the crash (cache-eviction model), with several seeds per crash point.
// Every scenario runs through pmem.Sweep, the one crash-sweep loop the
// tests use too, so points run in parallel on GOMAXPROCS goroutines.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"denova"
	"denova/internal/dedup"
	"denova/internal/fact"
	"denova/internal/nova"
	"denova/internal/pmem"
	"denova/internal/workload"
)

var (
	scenario = flag.String("scenario", "all", "dedup, reclaim, reorder, mixed, or all")
	evict    = flag.Bool("evict", true, "also test random cache-eviction crash images")
	seeds    = flag.Int("seeds", 3, "eviction seeds per crash point")
	verbose  = flag.Bool("v", false, "log each crash point")
)

func main() {
	flag.Parse()
	scenarios := map[string]func() (pmem.SweepResult, int64, error){
		"dedup":   sweepDedup,
		"reclaim": sweepReclaim,
		"reorder": sweepReorder,
		"mixed":   sweepMixed,
	}
	names := []string{"dedup", "reclaim", "reorder", "mixed"}
	if *scenario != "all" {
		if _, ok := scenarios[*scenario]; !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
			os.Exit(2)
		}
		names = []string{*scenario}
	}
	failed := false
	for _, name := range names {
		start := time.Now()
		res, resumed, err := scenarios[name]()
		if err != nil {
			fmt.Printf("FAIL %-8s %v\n", name, err)
			failed = true
			continue
		}
		fmt.Printf("PASS %-8s %d crash points survived, %d images, %d reorders resumed (%v)\n",
			name, res.Points, res.Images, resumed, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

// The geometry every scenario's device has: samePrefixPages computes the
// FACT prefix width from the same two values Mkfs gets.
const (
	devSize   = 48 << 20
	maxInodes = 4096
)

// setup builds a dirty (never cleanly unmounted) base image with the given
// populate function applied and all dedup drained.
func setup(populate func(fs *denova.FS) error) (*pmem.Device, error) {
	dev := denova.NewDevice(devSize, denova.ProfileZero)
	fs, err := denova.Mkfs(dev, denova.Config{Mode: denova.ModeImmediate, NoDaemon: true, MaxInodes: maxInodes})
	if err != nil {
		return nil, err
	}
	if err := populate(fs); err != nil {
		return nil, err
	}
	fs.UnmountDirty()
	return dev, nil
}

// mountFS mounts an image daemon-less so the sweep controls when dedup
// runs and injected crashes unwind on the sweeping goroutine.
func mountFS(dev *pmem.Device) (*denova.FS, *denova.RecoveryInfo, error) {
	return denova.Mount(dev, denova.Config{Mode: denova.ModeImmediate, NoDaemon: true})
}

// sweep crashes op, run on a mounted clone of base, at every persist point
// and checks the drop-dirty image (plus -seeds eviction images with
// -evict) of each: recovery mounts, the FACT invariants hold, and check
// passes. It also returns the chain reorders the recovery mounts resumed.
func sweep(base *pmem.Device, op func(fs *denova.FS) error, check func(fs *denova.FS, k int64) error) (pmem.SweepResult, int64, error) {
	modes := []pmem.SweepMode{{Mode: pmem.CrashDropDirty}}
	if *evict && *seeds > 0 {
		modes = append(modes, pmem.SweepMode{Mode: pmem.CrashEvictRandom, Seeds: *seeds})
	}
	var resumed atomic.Int64
	res, err := pmem.Sweep(func() (*pmem.Device, func() error, error) {
		work := base.Clone()
		fs, _, err := mountFS(work)
		if err != nil {
			return nil, nil, err
		}
		return work, func() error { return op(fs) }, nil
	}, func(img *pmem.Device, k int64) error {
		if *verbose {
			fmt.Printf("  crash point %d\n", k)
		}
		fs, info, err := mountFS(img)
		if err != nil {
			return fmt.Errorf("recovery mount failed: %v", err)
		}
		resumed.Add(int64(info.Dedup.Fact.ReordersResumed))
		if err := fs.CheckFACTInvariants(); err != nil {
			return err
		}
		return check(fs, k)
	}, modes...)
	return res, resumed.Load(), err
}

func wantData(spec workload.Spec, i int) []byte {
	return workload.NewGenerator(spec).FileData(i)
}

func verifyFile(fs *denova.FS, name string, want []byte) error {
	f, err := fs.Open(name)
	if err != nil {
		return fmt.Errorf("file %q lost: %v", name, err)
	}
	got := make([]byte, len(want))
	n, err := f.ReadAt(got, 0)
	if err != nil {
		return err
	}
	if n != len(want) || !bytes.Equal(got[:n], want) {
		return fmt.Errorf("file %q corrupted", name)
	}
	return nil
}

// sweepDedup crashes inside the Fig. 6 deduplication transaction.
func sweepDedup() (pmem.SweepResult, int64, error) {
	spec := workload.Spec{Name: "x", FileSize: 3 * 4096, NumFiles: 2, DupRatio: 0, Seed: 4}
	dataA := wantData(spec, 0)
	dataB := append(append([]byte{}, dataA[:4096]...), wantData(spec, 1)[4096:]...) // shares page 0 with A
	base, err := setup(func(fs *denova.FS) error {
		if err := writeFile(fs, "a", dataA); err != nil {
			return err
		}
		return writeFile(fs, "b", dataB)
	})
	if err != nil {
		return pmem.SweepResult{}, 0, err
	}
	op := func(fs *denova.FS) error { fs.Sync(); return nil }
	check := func(fs *denova.FS, k int64) error {
		if err := verifyFile(fs, "a", dataA); err != nil {
			return err
		}
		if err := verifyFile(fs, "b", dataB); err != nil {
			return err
		}
		// I4: dedup completes after recovery and content still holds.
		fs.Sync()
		if err := verifyFile(fs, "a", dataA); err != nil {
			return fmt.Errorf("after resumed dedup: %v", err)
		}
		if err := verifyFile(fs, "b", dataB); err != nil {
			return fmt.Errorf("after resumed dedup: %v", err)
		}
		return fs.CheckFACTInvariants()
	}
	return sweep(base, op, check)
}

// sweepReclaim crashes while overwriting files whose pages are shared.
func sweepReclaim() (pmem.SweepResult, int64, error) {
	spec := workload.Spec{Name: "x", FileSize: 2 * 4096, NumFiles: 1, DupRatio: 0, Seed: 8}
	shared := wantData(spec, 0)
	base, err := setup(func(fs *denova.FS) error {
		for _, name := range []string{"a", "b"} {
			if err := writeFile(fs, name, shared); err != nil {
				return err
			}
		}
		fs.Sync() // fully deduplicated: a and b share both pages
		return nil
	})
	if err != nil {
		return pmem.SweepResult{}, 0, err
	}
	spec2 := spec
	spec2.Seed = 88
	newData := wantData(spec2, 0)
	op := func(fs *denova.FS) error {
		f, err := fs.Open("a")
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(newData, 0); err != nil {
			return err
		}
		fs.Sync()
		return nil
	}
	check := func(fs *denova.FS, k int64) error {
		// I5: b must never lose the shared data, whatever happened to a.
		if err := verifyFile(fs, "b", shared); err != nil {
			return err
		}
		// a reads as old or new per page (entry-atomic CoW).
		f, err := fs.Open("a")
		if err != nil {
			return err
		}
		page := make([]byte, 4096)
		for pg := int64(0); pg < 2; pg++ {
			if _, err := f.ReadAt(page, pg*4096); err != nil {
				return err
			}
			if !bytes.Equal(page, shared[pg*4096:(pg+1)*4096]) && !bytes.Equal(page, newData[pg*4096:(pg+1)*4096]) {
				return fmt.Errorf("file a page %d neither old nor new", pg)
			}
		}
		return nil
	}
	return sweep(base, op, check)
}

// sweepReorder crashes inside the FACT chain-reordering protocol: four
// distinct pages share one FACT prefix, so the last inserted sits fourth in
// its chain, and three more copies of it make the dedup lookups walk past
// the depth threshold to a hot entry, which flags the chain for reordering
// during the drain.
func sweepReorder() (pmem.SweepResult, int64, error) {
	chain, err := samePrefixPages(4)
	if err != nil {
		return pmem.SweepResult{}, 0, err
	}
	type file struct {
		name string
		data []byte
	}
	var files []file // in insertion order, which is chain order
	for i, p := range chain {
		files = append(files, file{fmt.Sprintf("c%d", i), p})
	}
	for i := 0; i < 3; i++ {
		files = append(files, file{fmt.Sprintf("hot%d", i), chain[len(chain)-1]})
	}
	base, err := setup(func(fs *denova.FS) error {
		for _, f := range files {
			if err := writeFile(fs, f.name, f.data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return pmem.SweepResult{}, 0, err
	}
	op := func(fs *denova.FS) error {
		fs.Sync()
		if fs.Stats().Fact.Reorders == 0 {
			return fmt.Errorf("the drain reordered no chain; the scenario is vacuous")
		}
		return nil
	}
	check := func(fs *denova.FS, k int64) error {
		fs.Sync() // resume
		for _, f := range files {
			if err := verifyFile(fs, f.name, f.data); err != nil {
				return err
			}
		}
		return fs.CheckFACTInvariants()
	}
	return sweep(base, op, check)
}

// samePrefixPages returns n distinct pages whose strong fingerprints share
// one FACT prefix at this device's geometry, found by hashing pages of
// seeded random content until one prefix has collected n.
func samePrefixPages(n int) ([][]byte, error) {
	g, err := nova.ComputeGeometry(devSize, maxInodes)
	if err != nil {
		return nil, err
	}
	table := fact.New(nil, fact.Config{PrefixBits: g.FactPrefixBits}) // for PrefixOf alone
	byPrefix := map[uint64][][]byte{}
	for seed := int64(0); ; seed++ {
		p := workload.NewGenerator(workload.Spec{Name: "chain", FileSize: 4096, NumFiles: 1, Seed: seed}).FileData(0)
		prefix := table.PrefixOf(dedup.Strong(p))
		if byPrefix[prefix] = append(byPrefix[prefix], p); len(byPrefix[prefix]) == n {
			return byPrefix[prefix], nil
		}
	}
}

func writeFile(fs *denova.FS, name string, data []byte) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, 0)
	return err
}

// sweepMixed crashes inside a combined create/overwrite/delete/dedup churn.
func sweepMixed() (pmem.SweepResult, int64, error) {
	spec := workload.Spec{Name: "mix", FileSize: 2 * 4096, NumFiles: 8, DupRatio: 0.5, Seed: 12}
	gen := workload.NewGenerator(spec)
	base, err := setup(func(fs *denova.FS) error {
		for i := 0; i < spec.NumFiles; i++ {
			if err := writeFile(fs, gen.FileName(i), gen.FileData(i)); err != nil {
				return err
			}
		}
		fs.Sync()
		return nil
	})
	if err != nil {
		return pmem.SweepResult{}, 0, err
	}
	spec2 := spec
	spec2.Seed = 120
	gen2 := workload.NewGenerator(spec2)
	op := func(fs *denova.FS) error {
		if err := fs.Remove(gen.FileName(0)); err != nil {
			return err
		}
		f, err := fs.Open(gen.FileName(1))
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(gen2.FileData(1), 0); err != nil {
			return err
		}
		if err := writeFile(fs, "fresh", gen2.FileData(7)); err != nil {
			return err
		}
		fs.Sync()
		return nil
	}
	check := func(fs *denova.FS, k int64) error {
		// Untouched files must be intact in every image.
		for i := 2; i < spec.NumFiles; i++ {
			if err := verifyFile(fs, gen.FileName(i), gen.FileData(i)); err != nil {
				return err
			}
		}
		fs.Sync()
		return fs.CheckFACTInvariants()
	}
	return sweep(base, op, check)
}
