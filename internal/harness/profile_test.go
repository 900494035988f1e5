package harness

import (
	"crypto/sha1"
	"sort"
	"testing"

	"denova"
	"denova/internal/pmem"
	"denova/internal/workload"
)

func tinyProfile(p workload.Profile, ops int) workload.Profile {
	p.NumOps = ops
	return p
}

func TestRunProfileSmoke(t *testing.T) {
	t.Parallel()
	res, _, err := RunProfile(
		FSConfig{Mode: denova.ModeImmediate},
		tinyProfile(workload.Fileserver(0), 600),
		ProfileOptions{Threads: 2, Profile: pmem.ProfileZero})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 600 {
		t.Errorf("ops = %d, want 600", res.Ops)
	}
	if res.Elapsed <= 0 {
		t.Errorf("elapsed = %v", res.Elapsed)
	}
	if res.Bytes <= 0 || res.Read <= 0 {
		t.Errorf("bytes written %d / read %d", res.Bytes, res.Read)
	}
	for _, op := range []string{"op.create", "op.write", "op.read"} {
		h, ok := res.Latency[op]
		if !ok || h.Count == 0 {
			t.Errorf("latency histogram %q missing", op)
			continue
		}
		if h.P50Ns <= 0 || h.P99Ns < h.P50Ns || h.MaxNs < h.P99Ns {
			t.Errorf("latency %q not monotone: %+v", op, h)
		}
	}
	if len(res.Oracle) == 0 {
		t.Error("no surviving files in oracle")
	}
}

// TestRunProfileAllProfiles replays a short prefix of all five standard
// profiles through the dedup pipeline; the runner's built-in oracle checks
// (per-read and quiesced full read-back) are the assertion.
func TestRunProfileAllProfiles(t *testing.T) {
	t.Parallel()
	for _, prof := range workload.StandardProfiles(400) {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			res, _, err := RunProfile(
				FSConfig{Mode: denova.ModeImmediate}, prof,
				ProfileOptions{Threads: 2, Profile: pmem.ProfileZero})
			if err != nil {
				t.Fatal(err)
			}
			if res.Profile != prof.Name {
				t.Errorf("result profile %q", res.Profile)
			}
			if res.Savings < 0 {
				t.Errorf("savings %v negative", res.Savings)
			}
		})
	}
}

// TestRunProfileDeterministicEndState pins the replay determinism contract
// end to end: two independent runs of the same profile leave byte-identical
// file systems (same oracle contents).
func TestRunProfileDeterministicEndState(t *testing.T) {
	t.Parallel()
	digest := func() map[string][20]byte {
		res, _, err := RunProfile(
			FSConfig{Mode: denova.ModeImmediate},
			tinyProfile(workload.Varmail(0), 500),
			ProfileOptions{Threads: 3, Profile: pmem.ProfileZero})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][20]byte{}
		for path, data := range res.Oracle {
			out[path] = sha1.Sum(data)
		}
		return out
	}
	a, b := digest(), digest()
	if len(a) != len(b) {
		t.Fatalf("runs disagree on surviving files: %d vs %d", len(a), len(b))
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			t.Errorf("file %s differs between identical runs", k)
		}
	}
}

// TestRunProfileBackupIngestDedups checks the duplicate-rich ingest stream
// actually exercises the dedup pipeline (the profile's reason to exist).
func TestRunProfileBackupIngestDedups(t *testing.T) {
	t.Parallel()
	res, fs, err := RunProfile(
		FSConfig{Mode: denova.ModeImmediate},
		tinyProfile(workload.BackupIngest(0), 500),
		ProfileOptions{Threads: 2, Profile: pmem.ProfileZero, KeepFS: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	if st := fs.Stats(); st.Dedup.PagesDuplicate == 0 {
		t.Errorf("backup-ingest (75%% dup dial) deduplicated nothing: %+v", st.Dedup)
	}
	if res.Savings <= 0 {
		t.Errorf("savings = %v for a duplicate-rich stream", res.Savings)
	}
}

func TestRunProfileRejectsEmptyTrace(t *testing.T) {
	t.Parallel()
	if _, _, err := RunProfile(FSConfig{Mode: denova.ModeNone}, workload.Fileserver(0), ProfileOptions{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}
