package harness

import (
	"strings"
	"testing"

	"denova"
	"denova/internal/pmem"
	"denova/internal/workload"
)

// TestMultiTenantSmoke is the cross-tenant isolation gate, run under -race
// by `make race` and the CI concurrency job: K independent namespaces
// replay concurrent op streams (3 replay workers) against one device while
// a 4-worker dedup daemon drains behind them and forced thorough-GC passes
// land every few ops. The per-tenant content oracle checks every read
// in-flight and the full tree at quiescence; after Drain + clean unmount
// the device is remounted and every tenant's files are verified again —
// cross-tenant refcount corruption (a shared deduplicated page freed or
// remapped while another tenant still references it) cannot survive both
// checks plus the full-stack Fsck on both mounts.
func TestMultiTenantSmoke(t *testing.T) {
	t.Parallel()
	numOps := 2400
	if raceEnabled {
		numOps = 900
	}
	prof := workload.Multitenant(numOps, 3)
	res, fs, err := RunProfile(
		FSConfig{Mode: denova.ModeImmediate, ScrubEvery: 8},
		prof,
		ProfileOptions{
			Threads: 3,
			Profile: pmem.ProfileZero,
			GCEvery: 16,
			KeepFS:  true,
		})
	if err != nil {
		t.Fatal(err)
	}

	// Every tenant must have live files and the tenants must share device
	// pages (DupRatio 0.5 across tenants → cross-tenant dedup happened).
	perTenant := map[string]int{}
	for path := range res.Oracle {
		dir, _, ok := strings.Cut(path, "/")
		if !ok {
			t.Fatalf("oracle path %q not tenant-scoped", path)
		}
		perTenant[dir]++
	}
	if len(perTenant) != 3 {
		t.Errorf("oracle spans %d tenants, want 3: %v", len(perTenant), perTenant)
	}
	if st := fs.Stats(); st.Dedup.PagesDuplicate == 0 {
		t.Errorf("no page deduplicated across the tenant mix: %+v", st.Dedup)
	}

	// Quiesced: scrub RFC over-increments, then deep-check the whole stack.
	fs.ScrubNow()
	if err := fs.Fsck(); err != nil {
		t.Fatalf("fsck after multi-tenant run: %v", err)
	}

	dev := fs.Device()
	if err := fs.Unmount(); err != nil {
		t.Fatalf("unmount: %v", err)
	}

	// Remount and re-verify every tenant's content against the oracle: the
	// persistent state (logs, FACT chains, refcounts) must reconstruct the
	// same bytes for every namespace.
	fs2, info, err := denova.Mount(dev, denova.Config{Mode: denova.ModeImmediate})
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	defer fs2.Unmount()
	if !info.Clean {
		t.Error("clean unmount not detected on remount")
	}
	if err := verify(inProcess(fs2), res.Oracle); err != nil {
		t.Fatalf("post-remount oracle: %v", err)
	}
	if err := fs2.Fsck(); err != nil {
		t.Fatalf("fsck after remount: %v", err)
	}
}
