// Command denovactl is an interactive/administrative CLI for a DeNOVA file
// system living in a device image file. The simulated PM device is backed
// by an ordinary file on disk: "mkfs" creates it, every other subcommand
// loads it, applies the operation, and writes the (cleanly unmounted) image
// back — a persistence model analogous to a PM DIMM that survives reboots.
//
// Usage:
//
//	denovactl -img fs.img [-mode immediate] [-workers N] <command> [args]
//
// Commands:
//
//	mkfs -size 256M                create a fresh file system image
//	write <path> <local-file>      store a local file
//	cat <path>                     print a stored file to stdout
//	ls [path]                      list a directory (default: root)
//	mkdir <path>                   create a directory
//	rmdir <path>                   remove an empty directory
//	rm <path>                      delete a file
//	stats                          space, dedup, device and recovery statistics
//	                               (incl. the mount's per-pass recovery timeline)
//	fsck                           deep-verify file system + FACT invariants
//	scrub                          run one FACT scrubber pass
//	top [-dur 5s] [-refresh 500ms] [-addr :0]
//	                               live dashboard (queue depth, worker
//	                               utilization, op-latency percentiles) over a
//	                               generated workload; the image is not modified
//	trace [-n 32] [-crash-after K] [-out file] [-op substr] [-min-dur 0]
//	                               run a traced workload and dump the most
//	                               recent events; with -crash-after, inject a
//	                               crash and preserve the frozen ring in an
//	                               image sidecar (<img>.trace.json); -op and
//	                               -min-dur filter the printed events
//	slow [-threshold 500us] [-out file] [-addr host:port]
//	                               capture slow-request span trees as a Chrome
//	                               trace-event JSON file (<img>.slow.json),
//	                               loadable in chrome://tracing or Perfetto;
//	                               with -addr, fetch /slow from a running
//	                               denova-serve metrics listener instead
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"denova"
	"denova/internal/obs"
	"denova/internal/pmem"
)

var (
	img     = flag.String("img", "denova.img", "device image file")
	mode    = flag.String("mode", "immediate", "dedup mode: none, inline, immediate, delayed")
	size    = flag.String("size", "256M", "device size for mkfs (e.g. 64M, 1G)")
	workers = flag.Int("workers", 0, "recovery and dedup worker-pool size (0 = min(GOMAXPROCS, 8))")
)

// fmtBytes renders a byte count with a binary suffix (parseSize's inverse,
// for display only).
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dG", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	}
	return strconv.FormatInt(n, 10)
}

// parseSize parses a device size like "4096", "64K", "256M" or "1G"
// (suffixes also accepted lowercase). Malformed, empty, zero, negative and
// overflowing sizes are rejected with a descriptive error.
func parseSize(s string) (int64, error) {
	orig := s
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	}
	if s == "" {
		return 0, fmt.Errorf("invalid size %q: missing numeric value", orig)
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid size %q: want <number>[K|M|G]", orig)
	}
	if v <= 0 {
		return 0, fmt.Errorf("invalid size %q: must be positive", orig)
	}
	if v > math.MaxInt64/mult {
		return 0, fmt.Errorf("invalid size %q: overflows int64 bytes", orig)
	}
	return v * mult, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "denovactl:", err)
	os.Exit(1)
}

// createOrOpen returns the named file, creating it when it does not exist.
func createOrOpen(fs *denova.FS, name string) *denova.File {
	f, err := fs.Create(name)
	if errors.Is(err, denova.ErrExists) {
		f, err = fs.Open(name)
	}
	if err != nil {
		fatal(err)
	}
	return f
}

func cfg() denova.Config {
	m, err := denova.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	return denova.Config{Mode: m, DelayInterval: 250 * time.Millisecond, DelayBatch: 10000, Workers: *workers}
}

// loadImage reads the image file into a fresh device (zero latency: this is
// an admin tool, not a benchmark).
func loadImage() *denova.Device {
	raw, err := os.ReadFile(*img)
	if err != nil {
		fatal(fmt.Errorf("reading image (run mkfs first?): %w", err))
	}
	dev := denova.NewDevice(int64(len(raw)), denova.ProfileZero)
	dev.WriteNT(0, raw)
	return dev
}

// saveImage unmounts and writes the device contents back to the image file.
func saveImage(fs *denova.FS, dev *denova.Device) {
	if err := fs.Unmount(); err != nil {
		fatal(err)
	}
	raw := make([]byte, dev.Size())
	dev.Read(0, raw)
	if err := os.WriteFile(*img, raw, 0o644); err != nil {
		fatal(err)
	}
}

func mount() (*denova.FS, *denova.Device) { return mountCfg(cfg()) }

func mountCfg(c denova.Config) (*denova.FS, *denova.Device) {
	dev := loadImage()
	fs, _, err := denova.Mount(dev, c)
	if err != nil {
		fatal(err)
	}
	return fs, dev
}

// pageSize is the write granularity of the generated workloads (one NOVA
// data page).
const pageSize = 4096

// fillPage deterministically fills one page for workload step i: three of
// every four pages repeat a byte pattern from a small set (so the dedup
// pipeline has duplicates to find), the fourth is pseudo-random.
func fillPage(p []byte, i uint64) {
	if i%4 != 0 {
		for j := range p {
			p[j] = byte(i % 7)
		}
		return
	}
	seed := i*0x9e3779b97f4a7c15 + 1
	for j := 0; j+8 <= len(p); j += 8 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		binary.LittleEndian.PutUint64(p[j:], seed)
	}
}

// driveWorkload writes a duplicate-heavy page stream into a scratch file
// until stopped. It wraps within a bounded window so small images never run
// out of space; write errors end the workload quietly (the dashboard keeps
// refreshing on whatever was recorded).
func driveWorkload(fs *denova.FS, stop <-chan struct{}) {
	f := createOrOpen(fs, "denovactl.top")
	const window = 512 // pages (2 MiB logical footprint)
	page := make([]byte, pageSize)
	rbuf := make([]byte, pageSize)
	for i := uint64(0); ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		fillPage(page, i)
		if _, err := f.WriteAt(page, int64(i%window)*pageSize); err != nil {
			return
		}
		if i%64 == 63 {
			f.ReadAt(rbuf, int64(i%window)*pageSize)
		}
		if i%256 == 255 {
			fs.Sync()
		}
	}
}

// topOps is the op set shown in the dashboard's latency table, in display
// order.
var topOps = []string{
	"nova.write", "nova.read", "nova.truncate", "nova.gc.thorough",
	"dedup.process", "dedup.batch", "dedup.queue_wait", "dedup.scrub",
	"fact.begin_txn", "fact.commit_batch", "fact.decref",
}

func printTop(fs *denova.FS, elapsed, dur, refresh time.Duration, prevBusy *[]int64) {
	snap := fs.Metrics()
	st := fs.Stats()
	fmt.Print("\033[H\033[2J") // home + clear
	fmt.Printf("denovactl top — mode %s, elapsed %s / %s\n\n",
		fs.Mode(), elapsed.Round(100*time.Millisecond), dur)
	fmt.Printf("queue   len=%-6d peak=%-6d enq=%-8d deq=%-8d\n",
		st.Queue.Len, st.Queue.Peak, st.Queue.Enqueued, st.Queue.Dequeued)
	if len(st.Workers) > 0 {
		fmt.Print("workers ")
		for i, w := range st.Workers {
			var prev int64
			if i < len(*prevBusy) {
				prev = (*prevBusy)[i]
			}
			util := float64(w.BusyNs-prev) / float64(refresh.Nanoseconds()) * 100
			if util < 0 {
				util = 0
			}
			if util > 100 {
				util = 100
			}
			fmt.Printf("w%d=%5.1f%% ", i, util)
		}
		fmt.Println()
		busy := make([]int64, len(st.Workers))
		for i, w := range st.Workers {
			busy[i] = w.BusyNs
		}
		*prevBusy = busy
	}
	fmt.Printf("space   savings=%.1f%% logical=%d physical=%d free=%d\n",
		st.Space.Savings()*100, st.Space.LogicalPages, st.Space.PhysicalPages, st.Space.FreeBlocks)
	fmt.Printf("pmem    flush=%d nt=%d fences=%d\n\n",
		st.Device.FlushedLines, st.Device.NTLines, st.Device.Fences)
	fmt.Printf("%-20s %10s %12s %12s %12s %12s\n", "op", "count", "p50", "p95", "p99", "max")
	for _, name := range topOps {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Printf("%-20s %10d %12s %12s %12s %12s\n", name, h.Count,
			time.Duration(h.P50Ns), time.Duration(h.P95Ns),
			time.Duration(h.P99Ns), time.Duration(h.MaxNs))
	}
}

// runTop mounts the image, drives a synthetic duplicate-heavy workload and
// refreshes a live dashboard until the duration elapses. The image file is
// never written back: top is an observer, not a mutator.
func runTop(dur, refresh time.Duration, addr string) {
	c := cfg()
	c.Tracing = denova.TraceOps
	fs, _ := mountCfg(c)
	if addr != "" {
		srv, err := fs.ServeMetrics(addr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "denovactl: serving http://%s/metrics (.json, /trace)\n", srv.Addr)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		driveWorkload(fs, stop)
	}()
	start := time.Now()
	tick := time.NewTicker(refresh)
	defer tick.Stop()
	end := time.NewTimer(dur)
	defer end.Stop()
	var prevBusy []int64
	for running := true; running; {
		select {
		case <-tick.C:
			printTop(fs, time.Since(start), dur, refresh, &prevBusy)
		case <-end.C:
			running = false
		}
	}
	close(stop)
	<-done
	if err := fs.Unmount(); err != nil {
		fatal(err)
	}
	printTop(fs, time.Since(start), dur, refresh, &prevBusy)
	fmt.Println("\n(image not modified)")
}

// runTrace mounts with fine-grained tracing, runs a short traced workload
// and prints the most recent n ring events, optionally filtered by op-name
// substring and minimum duration. With crashAfter > 0 a crash is injected
// after that many persist operations; the crash hook freezes the ring,
// which is then preserved in a JSON sidecar next to the image for
// post-mortem analysis. The image file is never written back.
func runTrace(n int, crashAfter int64, out, opFilter string, minDur time.Duration) {
	c := cfg()
	c.Tracing = denova.TraceFine
	fs, dev := mountCfg(c)
	work := func() {
		f := createOrOpen(fs, "denovactl.trace")
		page := make([]byte, pageSize)
		for i := uint64(0); i < 64; i++ {
			fillPage(page, i)
			if _, err := f.WriteAt(page, int64(i)*pageSize); err != nil {
				fatal(err)
			}
		}
		fs.Sync()
		f.ReadAt(page, 0)
	}
	tr := fs.Tracer()
	if crashAfter > 0 {
		dev.SetCrashAfter(crashAfter)
		if !pmem.RunToCrash(work) {
			fmt.Fprintln(os.Stderr, "denovactl: workload finished before the crash point; dumping the full run")
		}
		if out == "" {
			out = *img + ".trace.json"
		}
		sidecar, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		if err := obs.EncodeTrace(sidecar, tr); err != nil {
			fatal(err)
		}
		if err := sidecar.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("crash injected (after %d persists): ring frozen=%v, sidecar %s\n",
			crashAfter, tr.Frozen(), out)
	} else {
		work()
		// Unmount first so the daemon drains and its batch events land in
		// the ring too. The in-memory device is simply discarded afterwards.
		if err := fs.Unmount(); err != nil {
			fatal(err)
		}
	}
	// Filter over everything buffered, then keep the most recent n, so a
	// narrow filter still fills its quota from older events.
	evs := fs.TraceEvents(0)
	if opFilter != "" || minDur > 0 {
		kept := evs[:0]
		for _, ev := range evs {
			if opFilter != "" && !strings.Contains(ev.Op.String(), opFilter) {
				continue
			}
			if ev.DurNs < minDur.Nanoseconds() {
				continue
			}
			kept = append(kept, ev)
		}
		evs = kept
	}
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	fmt.Printf("%d events (emitted %d, dropped %d):\n", len(evs), tr.Emitted(), tr.Dropped())
	for _, ev := range evs {
		fmt.Println(obs.FormatEvent(ev))
	}
}

// runSlow produces a Chrome trace-event capture of slow-request span trees.
// With addr set it fetches /slow from a live metrics listener; otherwise it
// mounts the image with fine tracing and the given slow threshold, drives
// the same short workload as trace, and writes whatever crossed the
// threshold. The image file is never written back.
func runSlow(threshold time.Duration, out, addr string) {
	if out == "" {
		out = *img + ".slow.json"
	}
	if addr != "" {
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		resp, err := http.Get(addr + "/slow")
		if err != nil {
			fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			fatal(fmt.Errorf("GET /slow: %s: %s", resp.Status, strings.TrimSpace(string(body))))
		}
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		if _, err := io.Copy(f, resp.Body); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("fetched slow-span capture from %s → %s\n", addr, out)
		return
	}
	c := cfg()
	c.Tracing = denova.TraceFine
	c.SlowSpanThreshold = threshold
	fs, _ := mountCfg(c)
	f := createOrOpen(fs, "denovactl.slow")
	page := make([]byte, pageSize)
	for i := uint64(0); i < 256; i++ {
		fillPage(page, i)
		if _, err := f.WriteAt(page, int64(i)*pageSize); err != nil {
			fatal(err)
		}
	}
	fs.Sync()
	if err := fs.Unmount(); err != nil {
		fatal(err)
	}
	slow := fs.SlowSpans()
	sidecar, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	if err := fs.WriteSlowTrace(sidecar); err != nil {
		fatal(err)
	}
	if err := sidecar.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("captured %d slow traces over %v → %s (load in chrome://tracing or ui.perfetto.dev)\n",
		len(slow), threshold, out)
	if len(slow) == 0 {
		fmt.Println("(nothing crossed the threshold; try a lower -threshold or a latency-profile image)")
	}
}

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: denovactl [flags] <mkfs|write|cat|ls|mkdir|rmdir|rm|stats|fsck|scrub|top|trace|slow> [args]")
		os.Exit(2)
	}
	switch args[0] {
	case "mkfs":
		sz, err := parseSize(*size)
		if err != nil {
			fatal(err)
		}
		dev := denova.NewDevice(sz, denova.ProfileZero)
		fs, err := denova.Mkfs(dev, cfg())
		if err != nil {
			fatal(err)
		}
		saveImage(fs, dev)
		fmt.Printf("created %s: %d bytes, mode %s\n", *img, sz, cfg().Mode)

	case "write":
		if len(args) != 3 {
			fatal(fmt.Errorf("usage: write <name> <local-file>"))
		}
		data, err := os.ReadFile(args[2])
		if err != nil {
			fatal(err)
		}
		fs, dev := mount()
		f := createOrOpen(fs, args[1])
		if _, err := f.WriteAt(data, 0); err != nil {
			fatal(err)
		}
		fs.Sync()
		st := fs.Stats()
		saveImage(fs, dev)
		fmt.Printf("wrote %q: %d bytes (savings now %.1f%%)\n", args[1], len(data), st.Space.Savings()*100)

	case "cat":
		if len(args) != 2 {
			fatal(fmt.Errorf("usage: cat <name>"))
		}
		fs, _ := mount()
		f, err := fs.Open(args[1])
		if err != nil {
			fatal(err)
		}
		buf := make([]byte, f.Size())
		if _, err := f.ReadAt(buf, 0); err != nil {
			fatal(err)
		}
		if _, err := io.Copy(os.Stdout, strings.NewReader(string(buf))); err != nil {
			fatal(err)
		}
		fs.Unmount()

	case "ls":
		fs, _ := mount()
		dir := ""
		if len(args) > 1 {
			dir = args[1]
		}
		names, err := fs.List(dir)
		if err != nil {
			fatal(err)
		}
		sort.Strings(names)
		for _, n := range names {
			full := n
			if dir != "" {
				full = dir + "/" + n
			}
			f, err := fs.Open(full)
			if err != nil {
				fmt.Printf("%12s  %s/\n", "<dir>", n)
				continue
			}
			fmt.Printf("%12d  %s\n", f.Size(), n)
		}
		fs.Unmount()

	case "rm":
		if len(args) != 2 {
			fatal(fmt.Errorf("usage: rm <name>"))
		}
		fs, dev := mount()
		if err := fs.Remove(args[1]); err != nil {
			fatal(err)
		}
		saveImage(fs, dev)
		fmt.Printf("removed %q\n", args[1])

	case "stats":
		fs, _ := mount()
		st := fs.Stats()
		snap := fs.StatsSnapshot()
		fmt.Printf("mode:            %s\n", fs.Mode())
		fmt.Printf("geometry:        %s device, %s FACT, %s data\n",
			fmtBytes(snap.Geometry.DeviceBytes), fmtBytes(snap.Geometry.FactBytes), fmtBytes(snap.Geometry.DataBytes))
		fmt.Printf("data blocks:     %d total, %d free\n", st.Space.TotalBlocks, st.Space.FreeBlocks)
		fmt.Printf("logical pages:   %d\n", st.Space.LogicalPages)
		fmt.Printf("physical pages:  %d\n", st.Space.PhysicalPages)
		fmt.Printf("space savings:   %.1f%%\n", st.Space.Savings()*100)
		fmt.Printf("dedup:           %d entries processed, %d dup pages, %d unique pages\n",
			st.Dedup.EntriesProcessed, st.Dedup.PagesDuplicate, st.Dedup.PagesUnique)
		fmt.Printf("FACT:            %d lookups (avg walk %.2f), %d inserts, %d reorders\n",
			st.Fact.Lookups, st.Fact.AvgWalk(), st.Fact.Inserts, st.Fact.Reorders)
		if fs.Mode() != denova.ModeNone {
			fmt.Printf("queue:           %d queued (peak %d), %d enq / %d deq\n",
				snap.Queue.Len, snap.Queue.Peak, snap.Queue.Enqueued, snap.Queue.Dequeued)
		}
		for i, w := range snap.Workers {
			fmt.Printf("worker %-2d:       %d batches, %d nodes, %s busy\n",
				i, w.Batches, w.Nodes, time.Duration(w.BusyNs))
		}
		fmt.Printf("reclaim:         %d blocks queued (oldest %s), %d deferred / %d inline\n",
			snap.Reclaim.Queued, snap.Reclaim.OldestAge.Round(time.Microsecond), snap.Reclaim.Deferred, snap.Reclaim.Inline)
		fmt.Printf("device:          %s\n", st.Device)
		if rec := fs.Recovery(); rec != nil {
			state := "clean"
			if !rec.Clean {
				state = "dirty"
			}
			fmt.Printf("recovery:        %s mount, %d workers, %s total\n",
				state, rec.Workers, rec.TotalWall().Round(time.Microsecond))
			fmt.Printf("                 %d orphans, %d repairs persisted, %d corrupt dentries, %d log pages GCed\n",
				len(rec.Orphans), rec.RepairsPersisted, rec.DentryCorrupt, rec.GCPages)
			fmt.Printf("                 dedup: %d resumed, %d requeued, %d scrubbed\n",
				rec.Dedup.Resumed, rec.Dedup.Requeued, rec.Dedup.ScrubDropped)
			for _, p := range rec.Passes {
				fmt.Printf("  pass %-15s %12s  %s\n", p.Name, p.Wall.Round(time.Microsecond), p.Pmem)
			}
		}
		fs.Unmount()

	case "mkdir":
		if len(args) != 2 {
			fatal(fmt.Errorf("usage: mkdir <path>"))
		}
		fs, dev := mount()
		if err := fs.Mkdir(args[1]); err != nil {
			fatal(err)
		}
		saveImage(fs, dev)
		fmt.Printf("created directory %q\n", args[1])

	case "rmdir":
		if len(args) != 2 {
			fatal(fmt.Errorf("usage: rmdir <path>"))
		}
		fs, dev := mount()
		if err := fs.Rmdir(args[1]); err != nil {
			fatal(err)
		}
		saveImage(fs, dev)
		fmt.Printf("removed directory %q\n", args[1])

	case "fsck":
		fs, _ := mount()
		if err := fs.Fsck(); err != nil {
			fatal(err)
		}
		fmt.Println("fsck: all invariants OK")
		fs.Unmount()

	case "scrub":
		fs, dev := mount()
		n := fs.ScrubNow()
		saveImage(fs, dev)
		fmt.Printf("scrubber reclaimed %d leaked pages\n", n)

	case "top":
		fset := flag.NewFlagSet("top", flag.ExitOnError)
		dur := fset.Duration("dur", 5*time.Second, "how long to run the generated workload")
		refresh := fset.Duration("refresh", 500*time.Millisecond, "dashboard refresh interval")
		addr := fset.String("addr", "", "also serve /metrics, /metrics.json and /trace on this address")
		fset.Parse(args[1:])
		runTop(*dur, *refresh, *addr)

	case "trace":
		fset := flag.NewFlagSet("trace", flag.ExitOnError)
		n := fset.Int("n", 32, "most-recent events to print (0 = all buffered)")
		crashAfter := fset.Int64("crash-after", 0, "inject a crash after this many persist operations (0 = none)")
		out := fset.String("out", "", "sidecar file for the frozen ring (default <img>.trace.json; crash runs only)")
		opFilter := fset.String("op", "", "only print events whose op name contains this substring")
		minDur := fset.Duration("min-dur", 0, "only print events at least this long (e.g. 100us)")
		fset.Parse(args[1:])
		runTrace(*n, *crashAfter, *out, *opFilter, *minDur)

	case "slow":
		fset := flag.NewFlagSet("slow", flag.ExitOnError)
		threshold := fset.Duration("threshold", 500*time.Microsecond, "capture requests slower than this")
		out := fset.String("out", "", "output file (default <img>.slow.json)")
		addr := fset.String("addr", "", "fetch /slow from a running metrics listener instead of mounting the image")
		fset.Parse(args[1:])
		runSlow(*threshold, *out, *addr)

	default:
		fatal(fmt.Errorf("unknown command %q", args[0]))
	}
}
