package nova

import (
	"fmt"
	"strings"
)

// The namespace is a tree of directories rooted at inode RootIno. Each
// directory is an inode whose log holds dentry add/remove entries; the
// name→child map is the directory's DRAM index, rebuilt by replaying its
// log at mount. Create/Mkdir order their persistent effects so a crash at
// any point resolves at recovery: an inode persisted without its dentry is
// an orphan and is reclaimed; a remove-dentry persisted before the inode
// teardown finished lets recovery complete the teardown (reachability scan
// from the root).
//
// Lock order: parent directory before child inode; never two directories
// at once except parent→child during Rmdir.

// The namespace error taxonomy. These are the canonical sentinels the
// public denova package re-exports (denova.ErrNotFound and friends) and the
// wire protocol maps to status codes; every namespace operation returns one
// of them — possibly wrapped with path context — so callers can always
// dispatch with errors.Is.

// ErrExist is returned when creating a name that already exists.
var ErrExist = fmt.Errorf("nova: file exists")

// ErrNotExist is returned when looking up or deleting a missing name.
var ErrNotExist = fmt.Errorf("nova: file does not exist")

// ErrNotDir is returned when a path component is not a directory.
var ErrNotDir = fmt.Errorf("nova: not a directory")

// ErrIsDir is returned when a file operation hits a directory.
var ErrIsDir = fmt.Errorf("nova: is a directory")

// ErrNotEmpty is returned when removing a non-empty directory.
var ErrNotEmpty = fmt.Errorf("nova: directory not empty")

// ErrInvalid is returned for malformed arguments: empty path components,
// over-long names, "."/".." components, negative offsets or sizes.
var ErrInvalid = fmt.Errorf("nova: invalid argument")

// ErrStaleHandle is returned when resolving a handle whose inode slot has
// been freed or reused since the handle was issued (see handle.go).
var ErrStaleHandle = fmt.Errorf("nova: stale file handle")

// splitPath validates a slash-separated path and returns its components.
// Leading and trailing slashes are tolerated; empty components are not.
func splitPath(path string) ([]string, error) {
	trimmed := strings.Trim(path, "/")
	if trimmed == "" {
		return nil, nil // the root itself
	}
	parts := strings.Split(trimmed, "/")
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("empty path component in %q: %w", path, ErrInvalid)
		}
		if len(p) > MaxNameLen {
			return nil, fmt.Errorf("component %q exceeds %d bytes: %w", p, MaxNameLen, ErrInvalid)
		}
		if p == "." || p == ".." {
			return nil, fmt.Errorf("%q components are not supported: %w", p, ErrInvalid)
		}
	}
	return parts, nil
}

// resolveDir walks the directory components and returns the inode of the
// directory at the path.
func (fs *FS) resolveDir(parts []string) (*Inode, error) {
	cur := fs.root
	for _, comp := range parts {
		cur.mu.RLock()
		if !cur.dir {
			cur.mu.RUnlock()
			return nil, ErrNotDir
		}
		ino, ok := cur.names[comp]
		cur.mu.RUnlock()
		if !ok {
			return nil, ErrNotExist
		}
		next, ok := fs.Inode(ino)
		if !ok {
			return nil, fmt.Errorf("nova: dangling dentry %q -> inode %d", comp, ino)
		}
		cur = next
	}
	if !cur.dir {
		return nil, ErrNotDir
	}
	return cur, nil
}

// resolveParent splits path into (parent directory inode, leaf name).
func (fs *FS) resolveParent(path string) (*Inode, string, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("path %q has no leaf: %w", path, ErrInvalid)
	}
	dir, err := fs.resolveDir(parts[:len(parts)-1])
	if err != nil {
		return nil, "", err
	}
	return dir, parts[len(parts)-1], nil
}

// createInode allocates an inode of the given kind and links it under the
// parent with a committed dentry. The dentry lands after the inode is
// durable, so a crash in between leaves only a reclaimable orphan.
func (fs *FS) createInode(path string, dir bool) (*Inode, error) {
	parent, leaf, err := fs.resolveParent(path)
	if err != nil {
		return nil, err
	}
	parent.mu.Lock()
	defer parent.mu.Unlock()
	if !parent.dir {
		return nil, ErrNotDir
	}
	if _, ok := parent.names[leaf]; ok {
		return nil, ErrExist
	}
	ino, err := fs.allocInodeSlot()
	if err != nil {
		return nil, err
	}
	in, err := fs.newInode(ino, dir)
	if err != nil {
		fs.releaseInodeSlot(ino)
		return nil, err
	}
	if err := fs.logDentryLocked(parent, Dentry{Ino: ino, Name: leaf}); err != nil {
		fs.destroyInode(in)
		return nil, err
	}
	parent.names[leaf] = ino
	return in, nil
}

// Create makes a new empty file at path (parent directories must exist).
func (fs *FS) Create(path string) (*Inode, error) { return fs.createInode(path, false) }

// Mkdir makes a new empty directory at path.
func (fs *FS) Mkdir(path string) (*Inode, error) { return fs.createInode(path, true) }

// Lookup resolves a path to its inode (file or directory).
func (fs *FS) Lookup(path string) (*Inode, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return fs.root, nil
	}
	dir, err := fs.resolveDir(parts[:len(parts)-1])
	if err != nil {
		return nil, err
	}
	dir.mu.RLock()
	ino, ok := dir.names[parts[len(parts)-1]]
	dir.mu.RUnlock()
	if !ok {
		return nil, ErrNotExist
	}
	in, ok := fs.Inode(ino)
	if !ok {
		return nil, fmt.Errorf("nova: dangling dentry %q -> inode %d", path, ino)
	}
	return in, nil
}

// Names returns the entries of the directory at path ("" = root).
func (fs *FS) NamesAt(path string) ([]string, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	dir, err := fs.resolveDir(parts)
	if err != nil {
		return nil, err
	}
	dir.mu.RLock()
	defer dir.mu.RUnlock()
	out := make([]string, 0, len(dir.names))
	for n := range dir.names {
		out = append(out, n)
	}
	return out, nil
}

// Names returns the root directory's entries (compatibility helper).
func (fs *FS) Names() []string {
	out, _ := fs.NamesAt("")
	return out
}

// removeDentryLocked appends and commits a remove-dentry. Parent locked.
func (fs *FS) removeDentryLocked(parent *Inode, leaf string, ino uint64) error {
	if err := fs.logDentryLocked(parent, Dentry{Remove: true, Ino: ino, Name: leaf}); err != nil {
		return err
	}
	delete(parent.names, leaf)
	return nil
}

// Delete unlinks a file and reclaims its data and log pages. The
// remove-dentry is committed first; if the teardown is interrupted by a
// crash, recovery finds the inode unreachable and finishes the job.
func (fs *FS) Delete(path string) error {
	parent, leaf, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	in, err := func() (*Inode, error) {
		parent.mu.Lock()
		defer parent.mu.Unlock()
		ino, ok := parent.names[leaf]
		if !ok {
			return nil, ErrNotExist
		}
		in, ok := fs.Inode(ino)
		if !ok {
			return nil, fmt.Errorf("nova: dentry %q pointed at missing inode %d", path, ino)
		}
		if in.dir {
			return nil, ErrIsDir
		}
		if err := fs.removeDentryLocked(parent, leaf, ino); err != nil {
			return nil, err
		}
		return in, nil
	}()
	if err != nil {
		return err
	}
	fs.destroyInode(in)
	return nil
}

// destroyInode tears down a file or directory no dentry names (any more, or
// yet) and returns its inode slot.
func (fs *FS) destroyInode(in *Inode) {
	in.mu.Lock()
	defer in.mu.Unlock()
	fs.deleteInodeLocked(in)
	fs.releaseInodeSlot(in.ino)
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(path string) error {
	parent, leaf, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	ino, err := func() (uint64, error) {
		parent.mu.Lock()
		defer parent.mu.Unlock()
		ino, ok := parent.names[leaf]
		if !ok {
			return 0, ErrNotExist
		}
		in, ok := fs.Inode(ino)
		if !ok {
			return 0, fmt.Errorf("nova: dentry %q pointed at missing inode %d", path, ino)
		}
		if !in.dir {
			return 0, ErrNotDir
		}
		// Parent-then-child same-level nesting; in.mu must stay held from
		// the emptiness check through the teardown so no entry can sneak in
		// after the check.
		in.mu.Lock()
		defer in.mu.Unlock()
		if len(in.names) != 0 {
			return 0, ErrNotEmpty
		}
		if err := fs.removeDentryLocked(parent, leaf, ino); err != nil {
			return 0, err
		}
		fs.deleteInodeLocked(in) // no data to release: frees the log chain, invalidates
		return ino, nil
	}()
	if err != nil {
		return err
	}
	fs.releaseInodeSlot(ino)
	return nil
}
