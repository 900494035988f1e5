package denova

import (
	"fmt"
	"strings"

	"denova/internal/nova"
)

// File is an open reference to a regular file. Files stay valid until the
// file is removed or the file system is unmounted.
type File struct {
	fs   *FS
	in   *nova.Inode
	name string
}

// Handle is a stable 64-bit reference to a file or directory, backed by
// inode identity (inode number + slot generation), not the path string. A
// handle issued by Lookup, Create or File.Handle keeps resolving until the
// file is deleted — renames of ancestors or slot reuse cannot redirect it —
// and survives a clean unmount/remount. Resolving a deleted file's handle
// fails with ErrStaleHandle. The serving layer resolves paths to handles
// once and runs all data ops handle-based (see internal/server).
type Handle uint64

// Create makes a new empty file.
func (f *FS) Create(name string) (*File, error) {
	in, err := f.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &File{fs: f, in: in, name: name}, nil
}

// Open returns a handle to an existing file.
func (f *FS) Open(name string) (*File, error) {
	in, err := f.fs.Lookup(name)
	if err != nil {
		return nil, err
	}
	return &File{fs: f, in: in, name: name}, nil
}

// Remove unlinks a file and reclaims its space (shared deduplicated pages
// survive until their reference counts drain).
func (f *FS) Remove(name string) error { return f.fs.Delete(name) }

// Mkdir creates a directory (parent directories must already exist).
func (f *FS) Mkdir(path string) error {
	_, err := f.fs.Mkdir(path)
	return err
}

// Rmdir removes an empty directory.
func (f *FS) Rmdir(path string) error { return f.fs.Rmdir(path) }

// List returns the entries of the directory at path ("" for the root).
func (f *FS) List(path string) ([]string, error) { return f.fs.NamesAt(path) }

// Names lists the root directory contents.
func (f *FS) Names() []string { return f.fs.Names() }

// Lookup resolves a path (file or directory) to its stable handle and
// current metadata, without opening it. This is the serving layer's
// LOOKUP: resolve once, then address the object by handle.
func (f *FS) Lookup(path string) (Handle, FileInfo, error) {
	in, err := f.fs.Lookup(path)
	if err != nil {
		return 0, FileInfo{}, err
	}
	return Handle(in.Handle()), infoOf(in, leafOf(path)), nil
}

// FileByHandle reopens a file (or directory, for Stat) from its handle.
// Fails with ErrStaleHandle when the object has been deleted since the
// handle was issued.
func (f *FS) FileByHandle(h Handle) (*File, error) {
	in, err := f.fs.ResolveHandle(uint64(h))
	if err != nil {
		return nil, err
	}
	return &File{fs: f, in: in}, nil
}

// Handle returns the file's stable handle.
func (fl *File) Handle() Handle { return Handle(fl.in.Handle()) }

// leafOf returns the last component of a slash path ("" for the root).
func leafOf(path string) string {
	trimmed := strings.Trim(path, "/")
	if i := strings.LastIndexByte(trimmed, '/'); i >= 0 {
		return trimmed[i+1:]
	}
	return trimmed
}

// Name returns the file's name.
func (fl *File) Name() string { return fl.name }

// Size returns the current file size in bytes.
func (fl *File) Size() int64 { return int64(fl.in.Size()) }

// WriteAt writes len(p) bytes at offset off, routed through the configured
// deduplication mode. It returns len(p) on success (writes are atomic per
// call: either the whole entry commits or none of it is visible).
//
// With Config.Staging enabled the bytes land in the file's DRAM staging
// buffer (the fast path) and become durable at the next relink — an
// automatic MaxPages flush, File.Sync, FS.Sync, or a metadata operation.
// Durability-per-call callers must Sync.
func (fl *File) WriteAt(p []byte, off int64) (int, error) {
	return fl.WriteAtSpan(p, off, SpanContext{})
}

// WriteAtSpan is WriteAt carrying the caller's span context: the FS-level
// write (or staged append) becomes a child span of sc, and the async dedup
// work it enqueues stays attributed to sc's trace and tenant. The zero
// context makes it identical to WriteAt.
func (fl *File) WriteAtSpan(p []byte, off int64, sc SpanContext) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("write at %d: negative offset: %w", off, ErrInvalid)
	}
	fs := fl.fs
	if fs.stagingOn() {
		n, err := fs.fs.StageWriteCtx(fl.in, uint64(off), p, fs.writeFlag(), sc)
		if err != nil {
			return 0, err
		}
		if fl.in.StagedPages() >= fs.cfg.Staging.MaxPages {
			if _, err := fs.fs.Relink(fl.in); err != nil {
				// The write is staged (and readable); only the eager flush
				// failed. Surface it so the caller can react to ENOSPC now
				// rather than at Sync.
				return n, err
			}
		}
		return n, nil
	}
	switch fs.cfg.Mode {
	case ModeInline:
		// Inline dedup runs the whole pipeline synchronously in the write
		// path; it carries no span context (the serving layer uses the
		// offline modes).
		if err := fs.engine.WriteInline(fl.in, uint64(off), p); err != nil {
			return 0, err
		}
		return len(p), nil
	default:
		if _, err := fs.fs.WriteCtx(fl.in, uint64(off), p, fs.writeFlag(), sc); err != nil {
			return 0, err
		}
		return len(p), nil
	}
}

// writeFlag is the dedupe-flag new write entries carry in this mode.
func (f *FS) writeFlag() uint8 {
	if f.cfg.Mode == ModeImmediate || f.cfg.Mode == ModeDelayed {
		return nova.FlagNeeded
	}
	return nova.FlagNone
}

// Sync relinks this file's staged writes through one batched log commit,
// making them durable. A no-op (nil) when staging is disabled or the file
// has nothing staged. On error (ENOSPC) the staged data stays readable and
// re-syncable.
func (fl *File) Sync() error {
	if fl.in.StagedPages() == 0 {
		return nil
	}
	_, err := fl.fs.fs.Relink(fl.in)
	return err
}

// ReadAt reads up to len(p) bytes at offset off, returning the number of
// bytes read (short reads happen only at end of file).
func (fl *File) ReadAt(p []byte, off int64) (int, error) {
	return fl.ReadAtSpan(p, off, SpanContext{})
}

// ReadAtSpan is ReadAt carrying the caller's span context.
func (fl *File) ReadAtSpan(p []byte, off int64, sc SpanContext) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("read at %d: negative offset: %w", off, ErrInvalid)
	}
	return fl.fs.fs.ReadCtx(fl.in, uint64(off), p, sc)
}

// FileInfo describes a file, in the spirit of fs.FileInfo but with the
// simulator's logical clock instead of wall time.
type FileInfo struct {
	Name  string
	Size  int64
	Pages uint64 // physical pages currently referenced (before sharing)
	Ctime uint64 // logical creation tick
	Mtime uint64 // logical modification tick
	IsDir bool
}

// Stat returns the file's metadata. The Name is empty for files reopened
// through FileByHandle (handles carry identity, not paths).
func (fl *File) Stat() FileInfo { return infoOf(fl.in, fl.name) }

func infoOf(in *nova.Inode, name string) FileInfo {
	ctime, mtime := in.Times()
	return FileInfo{
		Name:  name,
		Size:  int64(in.Size()),
		Pages: in.PageCount(),
		Ctime: ctime,
		Mtime: mtime,
		IsDir: in.IsDir(),
	}
}

// Truncate changes the file size. Shrinking releases the pages beyond the
// new size (shared deduplicated pages survive through their reference
// counts); growing extends the file with a hole that reads as zeros.
func (fl *File) Truncate(size int64) error {
	return fl.TruncateSpan(size, SpanContext{})
}

// TruncateSpan is Truncate carrying the caller's span context.
func (fl *File) TruncateSpan(size int64, sc SpanContext) error {
	if size < 0 {
		return fmt.Errorf("truncate to %d: negative size: %w", size, ErrInvalid)
	}
	return fl.fs.fs.TruncateCtx(fl.in, uint64(size), fl.fs.writeFlag(), sc)
}
