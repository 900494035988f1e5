package harness

import (
	"bytes"
	"fmt"
	"testing"

	"denova"
	"denova/internal/pmem"
)

// appendStream drives the split write path end to end through the public
// API — File.WriteAt → staging → relink → Sync — with files × pages
// one-page appends interleaved across the files. It returns the device, the
// mounted file system, what each file must hold and the fences the stream
// and its Sync issued, read from the device's own counter.
func appendStream(t *testing.T, cfg denova.Config, files, pages int) (*pmem.Device, *denova.FS, [][]byte, int64) {
	t.Helper()
	dev := pmem.New(64<<20, pmem.ProfileZero)
	fs, err := denova.Mkfs(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fhs := make([]*denova.File, files)
	for i := range fhs {
		if fhs[i], err = fs.Create(fmt.Sprintf("append-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]byte, files)
	before := dev.Stats()
	for p := 0; p < pages; p++ {
		for i, f := range fhs {
			pg := make([]byte, 4096)
			for j := range pg {
				pg[j] = byte(j*7 + i*pages + p)
			}
			if _, err := f.WriteAt(pg, int64(p)*4096); err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], pg...)
		}
	}
	fs.Sync()
	return dev, fs, want, dev.Stats().Sub(before).Fences
}

// TestAppendBenchFenceReduction pins the split write path's fence economy:
// the same stream of 8 files × 64 one-page appends must issue at least 4×
// fewer fences per page staged in 8-page batches than through the
// per-write slow path. Fence counts come from the device's own counter, so
// no margin applies.
func TestAppendBenchFenceReduction(t *testing.T) {
	t.Parallel()
	const files, pages = 8, 64
	fencesPerPage := func(staging denova.StagingConfig) float64 {
		_, fs, _, fences := appendStream(t, denova.Config{Mode: denova.ModeNone, Staging: staging}, files, pages)
		defer fs.Unmount()
		return float64(fences) / (files * pages)
	}
	slow := fencesPerPage(denova.StagingConfig{})
	staged := fencesPerPage(denova.StagingConfig{MaxPages: 8})
	t.Logf("fences/page: slow path %.3f, staged %.3f (%.2fx)", slow, staged, slow/staged)
	if slow < 1 {
		t.Errorf("slow path %.3f fences/page, want >= 1 (it fences every write)", slow)
	}
	if slow < 4*staged {
		t.Errorf("staged %.3f fences/page vs slow path %.3f: want at least 4x fewer", staged, slow)
	}
}

// TestRunAppendOracle checks the staged appends are what they claim: after
// Sync, every page reads back byte-exact from the image a crash leaves, so
// the fence saving cannot come from skipped persistence. 9 pages per file
// leave one ragged tail past a full 8-page batch.
func TestRunAppendOracle(t *testing.T) {
	t.Parallel()
	cfg := denova.Config{Mode: denova.ModeNone, Staging: denova.StagingConfig{MaxPages: 8}}
	dev, fs, want, fences := appendStream(t, cfg, 2, 9)
	if fences <= 0 {
		t.Errorf("staged run issued %d fences, want > 0 (relink must fence)", fences)
	}
	fs.UnmountDirty()
	fs2, _, err := denova.Mount(dev.CrashImage(pmem.CrashDropDirty, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	for i, w := range want {
		f, err := fs2.Open(fmt.Sprintf("append-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if f.Size() != int64(len(w)) {
			t.Fatalf("file %d: size %d after Sync and a crash, want %d", i, f.Size(), len(w))
		}
		got := make([]byte, len(w))
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("file %d does not read back as written after Sync and a crash", i)
		}
	}
}
