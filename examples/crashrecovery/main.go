// Crashrecovery: demonstrates DeNOVA's §V-C failure consistency by pulling
// the plug in the middle of a deduplication transaction and showing that
// recovery (a) loses no committed data, (b) discards the half-done
// transaction's update counts, and (c) resumes and finishes the
// deduplication afterwards.
package main

import (
	"bytes"
	"fmt"
	"log"

	"denova"
	"denova/internal/pmem"
)

func main() {
	dev := denova.NewDevice(128<<20, denova.ProfileZero)
	// NoDaemon: deduplication runs only when we call Sync, on this
	// goroutine, so the injected crash unwinds to our recover().
	fs, err := denova.Mkfs(dev, denova.Config{Mode: denova.ModeImmediate, NoDaemon: true})
	if err != nil {
		log.Fatal(err)
	}

	// Two identical 64 KB files, committed but not yet deduplicated.
	payload := bytes.Repeat([]byte("persistent memory never forgets... "), 1872)
	for _, name := range []string{"left", "right"} {
		f, err := fs.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote 2 identical files, %d bytes each; dedup queue length: %d\n",
		len(payload), fs.StatsSnapshot().Queue.Len)

	// Arm the crash injector: power fails at the 25th persist operation of
	// the upcoming deduplication transaction.
	dev.SetCrashAfter(25)
	crashed := pmem.RunToCrash(func() { fs.Sync() })
	fmt.Printf("crash injected mid-deduplication: %v\n", crashed)

	// What a power failure leaves behind: the explicitly persisted state
	// only. All unflushed cache lines are gone.
	image := dev.CrashImage(pmem.CrashDropDirty, 0)

	// Recovery mount: scans the logs, repairs the FACT, discards orphaned
	// update counts, rebuilds the work queue from the dedupe-flags.
	fs2, info, err := denova.Mount(image, denova.Config{Mode: denova.ModeImmediate, NoDaemon: true})
	if err != nil {
		log.Fatalf("recovery failed: %v", err)
	}
	fmt.Printf("recovered: clean=%v, requeued=%d entries, resumed=%d in-process, UCs discarded=%d\n",
		info.Clean, info.Dedup.Requeued, info.Dedup.Resumed, info.Dedup.Fact.UCsDiscarded)

	// (a) No committed data was lost.
	for _, name := range []string{"left", "right"} {
		f, err := fs2.Open(name)
		if err != nil {
			log.Fatalf("%s lost: %v", name, err)
		}
		buf := make([]byte, f.Size())
		if _, err := f.ReadAt(buf, 0); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(buf, payload) {
			log.Fatalf("%s corrupted after crash", name)
		}
	}
	fmt.Println("both files intact after recovery")

	// (b) The metadata table is structurally sound.
	if err := fs2.CheckFACTInvariants(); err != nil {
		log.Fatalf("FACT invariants violated: %v", err)
	}
	fmt.Println("FACT invariants hold")

	// (c) Deduplication resumes and completes.
	fs2.Sync()
	st := fs2.Stats()
	fmt.Printf("deduplication finished after recovery: savings %.1f%% (%d logical / %d physical pages)\n",
		st.Space.Savings()*100, st.Space.LogicalPages, st.Space.PhysicalPages)
	fs2.Unmount()
}
