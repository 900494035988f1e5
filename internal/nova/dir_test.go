package nova

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"denova/internal/obs"
	"denova/internal/pmem"
)

func TestMkdirAndNestedCreate(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	if _, err := fs.Mkdir("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mkdir("a/b"); err != nil {
		t.Fatal(err)
	}
	data := patternData(100, 1)
	in, err := fs.Create("a/b/file")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(in, 0, data, FlagNone, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Lookup("a/b/file")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFileT(t, fs, got, 0, 100), data) {
		t.Fatal("nested file content wrong")
	}
	names, err := fs.NamesAt("a/b")
	if err != nil || len(names) != 1 || names[0] != "file" {
		t.Fatalf("NamesAt(a/b) = %v, %v", names, err)
	}
	if err := fs.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestPathValidation(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	fs.Mkdir("d")
	cases := []struct {
		path string
		op   func(string) error
	}{
		{"d//x", func(p string) error { _, err := fs.Create(p); return err }},
		{"no-such-dir/x", func(p string) error { _, err := fs.Create(p); return err }},
		{"./x", func(p string) error { _, err := fs.Create(p); return err }},
		{"../x", func(p string) error { _, err := fs.Create(p); return err }},
	}
	for _, c := range cases {
		if err := c.op(c.path); err == nil {
			t.Errorf("path %q accepted", c.path)
		}
	}
	// Leading/trailing slashes are tolerated.
	if _, err := fs.Create("/d/ok/"); err != nil {
		t.Fatalf("normalized path rejected: %v", err)
	}
	if _, err := fs.Lookup("d/ok"); err != nil {
		t.Fatal("normalized create not visible under clean path")
	}
}

func TestCreateThroughFileFails(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	writeFileT(t, fs, "plain", patternData(10, 1))
	if _, err := fs.Create("plain/child"); err == nil {
		t.Fatal("created a child under a regular file")
	}
	if _, err := fs.NamesAt("plain"); err != ErrNotDir {
		t.Fatalf("NamesAt on file: %v", err)
	}
}

func TestDeleteDirRejected(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	fs.Mkdir("d")
	if err := fs.Delete("d"); err != ErrIsDir {
		t.Fatalf("Delete on dir: %v", err)
	}
	if err := fs.Rmdir("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup("d"); err != ErrNotExist {
		t.Fatal("dir still visible after Rmdir")
	}
}

func TestRmdirNonEmpty(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	fs.Mkdir("d")
	writeFileT(t, fs, "d/f", patternData(10, 1))
	if err := fs.Rmdir("d"); err != ErrNotEmpty {
		t.Fatalf("Rmdir non-empty: %v", err)
	}
	if err := fs.Delete("d/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRmdirOnFileRejected(t *testing.T) {
	t.Parallel()
	_, fs := mkfsT(t)
	writeFileT(t, fs, "f", patternData(10, 1))
	if err := fs.Rmdir("f"); err != ErrNotDir {
		t.Fatalf("Rmdir on file: %v", err)
	}
}

func TestDeepTreeSurvivesRemount(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	path := ""
	for d := 0; d < 6; d++ {
		if path != "" {
			path += "/"
		}
		path += fmt.Sprintf("d%d", d)
		if _, err := fs.Mkdir(path); err != nil {
			t.Fatal(err)
		}
		in, err := fs.Create(path + "/leaf")
		if err != nil {
			t.Fatal(err)
		}
		fs.Write(in, 0, patternData(64, byte(d)), FlagNone, obs.SpanContext{})
	}
	fs.Unmount()
	fs2, _, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	check := ""
	for d := 0; d < 6; d++ {
		if check != "" {
			check += "/"
		}
		check += fmt.Sprintf("d%d", d)
		in, err := fs2.Lookup(check + "/leaf")
		if err != nil {
			t.Fatalf("depth %d: %v", d, err)
		}
		if !bytes.Equal(readFileT(t, fs2, in, 0, 64), patternData(64, byte(d))) {
			t.Fatalf("depth %d content wrong", d)
		}
	}
	if err := fs2.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeepTreeSurvivesCrash(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	fs.Mkdir("x")
	fs.Mkdir("x/y")
	in, _ := fs.Create("x/y/f")
	fs.Write(in, 0, patternData(200, 9), FlagNone, obs.SpanContext{})
	img := dev.CrashImage(pmem.CrashDropDirty, 0)
	fs2, _, err := Mount(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.Lookup("x/y/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFileT(t, fs2, got, 0, 200), patternData(200, 9)) {
		t.Fatal("content lost")
	}
}

func TestOrphanSubtreeReclaimedOnRecovery(t *testing.T) {
	t.Parallel()
	// Crash in the middle of Mkdir at every persist point: the directory
	// either exists (and is usable) or is fully reclaimed — including when
	// the inode landed but the dentry did not.
	base := pmem.New(testDevSize, pmem.ProfileZero)
	{
		fs, err := Mkfs(base, 64)
		if err != nil {
			t.Fatal(err)
		}
		fs.Mkdir("parent")
		fs.Unmount()
	}
	sweepMount(t, base, func(fs *FS) error {
		_, err := fs.Mkdir("parent/child")
		return err
	}, func(fs *FS, res *ScanResult) error {
		if _, err := fs.Lookup("parent/child"); err == nil {
			// Committed: must be a usable directory.
			if _, err := fs.Create("parent/child/ok"); err != nil {
				return fmt.Errorf("committed dir unusable: %v", err)
			}
		} else if len(res.Orphans) == 0 {
			// Not visible: either nothing persisted, or the inode is an
			// orphan that was reclaimed. Re-creating must work either way.
			if _, err := fs.Mkdir("parent/child"); err != nil {
				return fmt.Errorf("retry Mkdir failed: %v", err)
			}
		}
		return fs.Fsck(nil)
	})
}

func TestManyDirsManyFiles(t *testing.T) {
	t.Parallel()
	dev, fs := mkfsT(t)
	for d := 0; d < 10; d++ {
		dir := fmt.Sprintf("dir%d", d)
		if _, err := fs.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 12; f++ {
			in, err := fs.Create(fmt.Sprintf("%s/f%d", dir, f))
			if err != nil {
				t.Fatal(err)
			}
			fs.Write(in, 0, patternData(64, byte(d*16+f)), FlagNone, obs.SpanContext{})
		}
	}
	names, _ := fs.NamesAt("dir7")
	sort.Strings(names)
	if len(names) != 12 || names[0] != "f0" {
		t.Fatalf("dir7 listing = %v", names)
	}
	fs.Unmount()
	fs2, _, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 10; d++ {
		for f := 0; f < 12; f++ {
			in, err := fs2.Lookup(fmt.Sprintf("dir%d/f%d", d, f))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(readFileT(t, fs2, in, 0, 64), patternData(64, byte(d*16+f))) {
				t.Fatalf("dir%d/f%d corrupted", d, f)
			}
		}
	}
	if err := fs2.Fsck(nil); err != nil {
		t.Fatal(err)
	}
}
