package harness

import (
	"bytes"
	"testing"

	"denova"
	"denova/internal/pmem"
	"denova/internal/server"
	"denova/internal/workload"
)

// inProcess is a fresh in-process target, for reading a file system back.
func inProcess(fs *denova.FS) Target {
	return &fsTarget{fs: fs, files: map[string]*denova.File{}}
}

// TestRunProfileOverServerVarmail is the serving layer's end-to-end gate:
// the varmail profile replayed over loopback TCP through the wire codec,
// admission control and op scheduler, with the content oracle verifying
// every read in flight and the full end state after COMMIT. Run under
// -race by the concurrency CI job.
func TestRunProfileOverServerVarmail(t *testing.T) {
	t.Parallel()
	res, fs, err := RunProfile(
		FSConfig{Mode: denova.ModeImmediate},
		tinyProfile(workload.Varmail(0), 800),
		ProfileOptions{Threads: 3, Profile: pmem.ProfileZero, Server: &server.Config{}, KeepFS: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	if res.Ops != 800 {
		t.Errorf("ops = %d, want 800", res.Ops)
	}
	if res.Bytes <= 0 || res.Read <= 0 {
		t.Errorf("bytes written %d / read %d over the wire", res.Bytes, res.Read)
	}
	if len(res.Oracle) == 0 {
		t.Error("no surviving files in oracle")
	}
	// Server-side per-op latencies (p50/p99) must be visible in the shared
	// obs registry for every op the replay exercises.
	snap := fs.Metrics()
	for _, op := range []string{"create", "write", "read", "stat", "commit"} {
		h, ok := snap.Histograms["serve.op."+op]
		if !ok || h.Count == 0 {
			t.Errorf("serve.op.%s histogram missing", op)
			continue
		}
		if h.P50Ns <= 0 || h.P99Ns < h.P50Ns {
			t.Errorf("serve.op.%s quantiles not monotone: %+v", op, h)
		}
	}
}

// TestRunProfileOverServerDedups replays the duplicate-rich ingest profile
// in a dedup mode over the wire and checks savings materialize post-COMMIT:
// the network front-end composes with the offline dedup pipeline.
func TestRunProfileOverServerDedups(t *testing.T) {
	t.Parallel()
	res, _, err := RunProfile(
		FSConfig{Mode: denova.ModeImmediate},
		tinyProfile(workload.BackupIngest(0), 400),
		ProfileOptions{Threads: 2, Profile: pmem.ProfileZero, Server: &server.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Savings <= 0 {
		t.Errorf("savings = %v after duplicate-rich ingest over the wire", res.Savings)
	}
}

// TestRunProfileOverServerUnderShedding shrinks the server to one worker
// with tiny queues so admission control sheds constantly; the client retry
// loop must still complete the whole trace with the oracle intact.
func TestRunProfileOverServerUnderShedding(t *testing.T) {
	t.Parallel()
	res, fs, err := RunProfile(
		FSConfig{Mode: denova.ModeImmediate},
		tinyProfile(workload.Fileserver(0), 400),
		ProfileOptions{
			Threads: 4, Profile: pmem.ProfileZero, KeepFS: true,
			Server: &server.Config{Workers: 1, MaxInflight: 2, QueueDepth: 1},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	if res.Ops != 400 {
		t.Errorf("ops = %d, want 400", res.Ops)
	}
	t.Logf("sheds absorbed by retries: %d", fs.Metrics().Counters["serve.shed"])
}

// TestRunProfileOverServerMatchesInProcess replays the same profile prefix
// once in process and once over loopback, with the same thread count: the
// transport must not change the end state. The two oracles are
// byte-identical, each file system reads back to them, and both pass Fsck.
func TestRunProfileOverServerMatchesInProcess(t *testing.T) {
	t.Parallel()
	for _, prof := range []workload.Profile{workload.Varmail(400), workload.Multitenant(400, 3)} {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			run := func(srv *server.Config) (map[string][]byte, *denova.FS) {
				res, fs, err := RunProfile(FSConfig{Mode: denova.ModeImmediate}, prof,
					ProfileOptions{Threads: 2, Profile: pmem.ProfileZero, Server: srv, KeepFS: true})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { fs.Unmount() })
				return res.Oracle, fs
			}
			local, localFS := run(nil)
			wire, wireFS := run(&server.Config{})
			if len(local) == 0 || len(local) != len(wire) {
				t.Fatalf("surviving files: %d in process, %d over the wire", len(local), len(wire))
			}
			for path, want := range local {
				if got, ok := wire[path]; !ok || !bytes.Equal(got, want) {
					t.Errorf("%s: wire oracle differs from in-process oracle", path)
				}
			}
			for name, fs := range map[string]*denova.FS{"in-process": localFS, "wire": wireFS} {
				if err := verify(inProcess(fs), local); err != nil {
					t.Errorf("%s FS: %v", name, err)
				}
				if err := fs.Fsck(); err != nil {
					t.Errorf("%s FS: fsck: %v", name, err)
				}
			}
		})
	}
}

// TestRunProfileOverServerRejectsGCEvery: forced GC has no wire op, so a
// wire run that asks for it must fail up front, not silently skip it.
func TestRunProfileOverServerRejectsGCEvery(t *testing.T) {
	t.Parallel()
	_, _, err := RunProfile(FSConfig{Mode: denova.ModeNone}, tinyProfile(workload.Fileserver(0), 10),
		ProfileOptions{Profile: pmem.ProfileZero, Server: &server.Config{}, GCEvery: 4})
	if err == nil {
		t.Fatal("GCEvery accepted with a Server")
	}
}
