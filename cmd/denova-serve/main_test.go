package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"denova"
	"denova/internal/harness"
	"denova/internal/server/client"
	"denova/internal/workload"
)

// seedImage formats a fresh file system and dumps the device to path, the
// same image layout denovactl mkfs produces.
func seedImage(t *testing.T, path string) {
	t.Helper()
	dev := denova.NewDevice(64<<20, denova.ProfileZero)
	fs, err := denova.Mkfs(dev, denova.Config{Mode: denova.ModeImmediate})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, dev.Size())
	dev.Read(0, raw)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// syncWriter makes run's log output safe to inspect while run still owns it.
type syncWriter struct {
	mu  chan struct{}
	buf bytes.Buffer
}

func newSyncWriter() *syncWriter {
	w := &syncWriter{mu: make(chan struct{}, 1)}
	w.mu <- struct{}{}
	return w
}

func (w *syncWriter) Write(p []byte) (int, error) {
	<-w.mu
	defer func() { w.mu <- struct{}{} }()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	<-w.mu
	defer func() { w.mu <- struct{}{} }()
	return w.buf.String()
}

func waitForAddrFile(t *testing.T, path string) []string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		raw, err := os.ReadFile(path)
		if err == nil && len(raw) > 0 {
			return strings.Split(strings.TrimSpace(string(raw)), "\n")
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("denova-serve never published its address file")
	return nil
}

// TestServeSmoke is the full lifecycle gate behind `make serve-smoke`:
// start denova-serve on an ephemeral port, replay a workload profile
// through the wire client with oracle verification, scrape /metrics for
// the server-side op latency histograms, then assert a clean shutdown.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	out := newSyncWriter()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-metrics", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-size", fmt.Sprint(256 << 20),
			"-mode", "immediate",
		}, out, stop)
	}()

	addrs := waitForAddrFile(t, addrFile)
	if len(addrs) != 2 {
		t.Fatalf("addr file = %q, want serve + metrics addresses", addrs)
	}
	serveAddr, metricsAddr := addrs[0], addrs[1]

	// Replay a profile over the wire with the content oracle checking
	// every read and the quiesced end state.
	cl, err := client.Dial(serveAddr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof := workload.Varmail(0)
	prof.NumOps = 600
	oracle, err := harness.Replay(harness.OverWire(cl), prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle) == 0 {
		t.Fatal("replay left no surviving files")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	// The metrics endpoint must expose the serving histograms next to the
	// file-system metrics.
	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics scrape: status %d, %v", resp.StatusCode, err)
	}
	for _, want := range []string{"serve_op_write", "serve_op_read", "serve_admitted", "nova_writes"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// Clean shutdown: run returns nil and reports it.
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("denova-serve did not shut down")
	}
	if log := out.String(); !strings.Contains(log, "shutting down") {
		t.Errorf("log missing shutdown notice: %q", log)
	}

	// The serve port is actually released.
	if _, err := client.Dial(serveAddr, client.Options{}); err == nil {
		t.Error("serve port still accepting after shutdown")
	}
}

// TestServeImageRoundTrip serves an image-backed file system, writes
// through the wire, shuts down, and verifies the image re-serves with the
// data (and its handle) intact — handles survive a clean remount.
func TestServeImageRoundTrip(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "fs.img")
	seedImage(t, img)

	runServe := func(f func(addr string)) {
		addrFile := filepath.Join(dir, "addr")
		os.Remove(addrFile)
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- run([]string{
				"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-img", img,
			}, newSyncWriter(), stop)
		}()
		addrs := waitForAddrFile(t, addrFile)
		f(addrs[0])
		close(stop)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	var handle uint64
	runServe(func(addr string) {
		cl, err := client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		h, err := cl.Create("persisted")
		if err != nil {
			t.Fatal(err)
		}
		handle = uint64(h)
		if _, err := cl.Write(h, 0, []byte("across restarts")); err != nil {
			t.Fatal(err)
		}
	})
	runServe(func(addr string) {
		cl, err := client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		h, info, err := cl.Lookup("persisted")
		if err != nil || info.Size != int64(len("across restarts")) {
			t.Fatalf("lookup after restart = %+v, %v", info, err)
		}
		if uint64(h) != handle {
			t.Errorf("handle changed across clean remount: %#x -> %#x", handle, uint64(h))
		}
		data, err := cl.Read(h, 0, 64)
		if err != nil || string(data) != "across restarts" {
			t.Fatalf("read after restart = %q, %v", data, err)
		}
	})
}
