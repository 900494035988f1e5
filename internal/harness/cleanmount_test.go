package harness

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"denova"
	"denova/internal/fact"
	"denova/internal/pmem"
	"denova/internal/workload"
)

// TestCleanUnmountRecoversNothing checks that a clean Unmount leaves FACT
// recovery nothing to do. It runs a torture mix, trace-profile replays and
// the staged write path, unmounts cleanly and remounts: the report must show
// no chain repair, orphan, delete-pointer fix, resumed or discarded update
// count, dropped or scrubbed entry. A clean-mount fast path that skips the
// FACT repairs would rest on exactly this.
func TestCleanUnmountRecoversNothing(t *testing.T) {
	t.Parallel()
	ops := 1500
	if raceEnabled {
		ops = 500
	}
	profile := func(prof workload.Profile, opts ProfileOptions) func(t *testing.T) *denova.FS {
		return func(t *testing.T) *denova.FS {
			opts.Profile, opts.KeepFS = pmem.ProfileZero, true
			_, fs, err := RunProfile(FSConfig{Mode: denova.ModeImmediate}, prof, opts)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) *denova.FS
	}{
		{"torture", func(t *testing.T) *denova.FS {
			return churn(t, denova.Config{Mode: denova.ModeImmediate, Workers: 4, ScrubEvery: 8}, ops, true)
		}},
		{"staging", func(t *testing.T) *denova.FS {
			cfg := denova.Config{Mode: denova.ModeImmediate, Workers: 2,
				Staging: denova.StagingConfig{MaxPages: 8, MaxDelay: time.Millisecond}}
			return churn(t, cfg, ops, false)
		}},
		{"fileserver", profile(workload.Fileserver(ops), ProfileOptions{Threads: 2, GCEvery: 16})},
		{"varmail", profile(workload.Varmail(ops), ProfileOptions{Threads: 2})},
		{"multitenant", profile(workload.Multitenant(ops, 3), ProfileOptions{Threads: 3, GCEvery: 16})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := tc.run(t)
			if st := fs.Stats(); st.Dedup.PagesDuplicate == 0 {
				t.Errorf("the workload deduplicated nothing: %+v", st.Dedup)
			}
			dev := fs.Device()
			if err := fs.Unmount(); err != nil {
				t.Fatal(err)
			}
			fs2, info, err := denova.Mount(dev, denova.Config{Mode: denova.ModeImmediate, NoDaemon: true})
			if err != nil {
				t.Fatal(err)
			}
			defer fs2.Unmount()
			if !info.Clean {
				t.Fatal("remount of a cleanly unmounted device reports it dirty")
			}
			if d := info.Dedup; d.Fact != (fact.RecoverStats{}) || d.Resumed != 0 || d.ScrubDropped != 0 {
				t.Errorf("clean remount did recovery work: %+v resumed %d scrubbed %d", d.Fact, d.Resumed, d.ScrubDropped)
			}
			if err := fs2.Fsck(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// churn mounts a fresh file system under cfg and has four goroutines write,
// overwrite, truncate, delete and re-create a small set of files with
// heavily duplicated page contents while the daemon deduplicates behind
// them; with gc, a fifth forces thorough log GC. Halfway through it syncs,
// so deduplicated pages are certain to exist; it returns the file system
// unsynced, so the clean Unmount has to quiesce whatever is in flight.
func churn(t *testing.T, cfg denova.Config, ops int, gc bool) *denova.FS {
	t.Helper()
	fs, err := denova.Mkfs(denova.NewDevice(64<<20, pmem.ProfileZero), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const files, pages = 12, 8
	pool := make([][]byte, 6)
	for i := range pool {
		pool[i] = make([]byte, pmem.PageSize)
		rand.New(rand.NewSource(int64(i))).Read(pool[i])
	}
	stop := make(chan struct{})
	var gcWG sync.WaitGroup
	if gc {
		gcWG.Add(1)
		go func() {
			defer gcWG.Done()
			rng := rand.New(rand.NewSource(99))
			for {
				select {
				case <-stop:
					return
				default:
					_, _ = fs.ForceGC(fmt.Sprintf("f%d", rng.Intn(files))) // the file may be gone
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < ops/4; op++ {
				if w == 0 && op == ops/8 {
					fs.Sync()
				}
				// Each writer owns the files with its residue, so a delete
				// never races another writer's handle.
				name := fmt.Sprintf("f%d", 4*rng.Intn(files/4)+w)
				f, err := fs.Open(name)
				if err != nil {
					if f, err = fs.Create(name); err != nil {
						t.Error(err)
						return
					}
				}
				switch r := rng.Intn(100); {
				case r < 75:
					_, err = f.WriteAt(pool[rng.Intn(len(pool))], int64(rng.Intn(pages))*pmem.PageSize)
				case r < 90:
					err = f.Truncate(int64(rng.Intn(pages * pmem.PageSize)))
				default:
					err = fs.Remove(name)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	gcWG.Wait()
	return fs
}
