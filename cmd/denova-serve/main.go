// Command denova-serve exposes one DeNOVA file system over TCP using the
// wire protocol in internal/server/wire: an NFS-like stateless op set
// (LOOKUP/CREATE/READ/WRITE/TRUNCATE/REMOVE/MKDIR/READDIR/STAT/COMMIT)
// with stable 64-bit handles, request pipelining, and admission control.
//
// The file system lives either in a device image file (denovactl mkfs
// creates one; the image is written back on clean shutdown) or, with no
// -img, in a fresh in-memory device that vanishes on exit — convenient for
// demos and smoke tests.
//
// Usage:
//
//	denova-serve [-img fs.img | -size 256M] [-mode immediate]
//	             [-addr 127.0.0.1:7070] [-metrics 127.0.0.1:0]
//	             [-addr-file path] [-serve-workers N]
//	             [-max-inflight N] [-queue-depth N] [-cpuprofile file]
//
// With -addr 127.0.0.1:0 the kernel picks a port; -addr-file writes the
// bound serve address (line 1) and metrics address (line 2, when -metrics
// is set) for harnesses to discover. SIGINT/SIGTERM shut down cleanly:
// stop accepting, drain in-flight ops, save the image (if any), unmount.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"denova"
	"denova/internal/server"
)

func main() {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
	}()
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "denova-serve:", err)
		os.Exit(1)
	}
}

// run is main minus process concerns, so the smoke test can drive a full
// serve lifecycle in-process: it blocks until stop closes, then shuts down
// cleanly and returns.
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fl := flag.NewFlagSet("denova-serve", flag.ContinueOnError)
	addr := fl.String("addr", "127.0.0.1:7070", "serve address (use 127.0.0.1:0 for an ephemeral port)")
	addrFile := fl.String("addr-file", "", "write bound serve (and metrics) address here for discovery")
	metrics := fl.String("metrics", "", "also serve /metrics and /metrics.json on this address (empty = off)")
	img := fl.String("img", "", "device image file (empty = fresh in-memory device)")
	size := fl.Int64("size", 256<<20, "in-memory device size in bytes (no -img only)")
	mode := fl.String("mode", "immediate", "dedup mode: none, inline, immediate, delayed")
	fsWorkers := fl.Int("workers", 0, "dedup/recovery worker-pool size (0 = min(GOMAXPROCS, 8))")
	srvWorkers := fl.Int("serve-workers", 0, "op scheduler worker count (0 = default)")
	maxInflight := fl.Int("max-inflight", 0, "admission control: max in-flight ops (0 = default 256)")
	queueDepth := fl.Int("queue-depth", 0, "admission control: per-worker queue depth (0 = default 64)")
	cpuprofile := fl.String("cpuprofile", "", "write a CPU profile of the whole serve lifetime to this file")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "denova-serve: cpuprofile:", err)
			}
		}()
	}

	m, err := denova.ParseMode(*mode)
	if err != nil {
		return err
	}
	cfg := denova.Config{Mode: m, DelayInterval: 250 * time.Millisecond, DelayBatch: 10000, Workers: *fsWorkers}

	var dev *denova.Device
	var fs *denova.FS
	if *img != "" {
		raw, err := os.ReadFile(*img)
		if err != nil {
			return fmt.Errorf("reading image (run denovactl mkfs first?): %w", err)
		}
		dev = denova.NewDevice(int64(len(raw)), denova.ProfileZero)
		dev.WriteNT(0, raw)
		fs, _, err = denova.Mount(dev, cfg)
		if err != nil {
			return err
		}
	} else {
		dev = denova.NewDevice(*size, denova.ProfileZero)
		fs, err = denova.Mkfs(dev, cfg)
		if err != nil {
			return err
		}
	}

	srv := server.New(fs, server.Config{
		Workers:     *srvWorkers,
		MaxInflight: *maxInflight,
		QueueDepth:  *queueDepth,
	})
	bound, err := srv.Start(*addr)
	if err != nil {
		fs.Unmount()
		return err
	}
	fmt.Fprintf(out, "denova-serve: listening on %s (mode %s)\n", bound, fs.Mode())

	addrLines := bound
	var metricsSrv interface{ Close() error }
	if *metrics != "" {
		ms, err := fs.ServeMetrics(*metrics)
		if err != nil {
			srv.Close()
			fs.Unmount()
			return err
		}
		metricsSrv = ms
		addrLines += "\n" + ms.Addr
		fmt.Fprintf(out, "denova-serve: metrics on http://%s/metrics\n", ms.Addr)
	}
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, addrLines); err != nil {
			if metricsSrv != nil {
				metricsSrv.Close()
			}
			srv.Close()
			fs.Unmount()
			return err
		}
	}

	<-stop

	fmt.Fprintln(out, "denova-serve: shutting down")
	if err := srv.Close(); err != nil {
		return err
	}
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	if *img != "" {
		if err := fs.Unmount(); err != nil {
			return err
		}
		raw := make([]byte, dev.Size())
		dev.Read(0, raw)
		if err := os.WriteFile(*img, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "denova-serve: image saved to %s\n", *img)
		return nil
	}
	return fs.Unmount()
}

// writeAddrFile publishes the bound addresses atomically (write to a temp
// file, then rename) so a watcher never reads a half-written file.
func writeAddrFile(path, lines string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strings.TrimRight(lines, "\n")+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
