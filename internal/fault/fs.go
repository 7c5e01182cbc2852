package fault

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// File is the per-file surface the checkpoint subsystem uses: stream
// I/O plus the durability barrier. *os.File satisfies it.
type File interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS is the filesystem seam: the subset of package os the checkpoint
// subsystem performs its I/O through. Production code runs on OS; the
// chaos suite substitutes an Injector.
type FS interface {
	// Create creates or truncates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file (or directory, for directory syncs)
	// for reading.
	Open(name string) (File, error)
	// Mkdir creates one directory.
	Mkdir(name string, perm fs.FileMode) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(name string, perm fs.FileMode) error
	// Rename atomically moves oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove removes one file or empty directory.
	Remove(name string) error
	// RemoveAll removes a path and any children it contains.
	RemoveAll(name string) error
	// ReadDir lists a directory, sorted by filename.
	ReadDir(name string) ([]fs.DirEntry, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// Glob returns the names matching a shell pattern.
	Glob(pattern string) ([]string, error)
}

// OS is the production FS: a direct passthrough to package os.
type OS struct{}

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// Open implements FS.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// Mkdir implements FS.
func (OS) Mkdir(name string, perm fs.FileMode) error { return os.Mkdir(name, perm) }

// MkdirAll implements FS.
func (OS) MkdirAll(name string, perm fs.FileMode) error { return os.MkdirAll(name, perm) }

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// RemoveAll implements FS.
func (OS) RemoveAll(name string) error { return os.RemoveAll(name) }

// ReadDir implements FS.
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Glob implements FS.
func (OS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

// Injector wraps an inner FS, counting every operation (FS calls and
// the Write/Read/Sync/Close calls of every file it opened) in one
// global sequence and failing the configured ones. The zero
// configuration injects nothing and only counts — run the workload
// once against it to enumerate the operations, then replay with
// FailAt(i) or FailFrom(i) for each i to audit every crash point.
//
// Two failure models:
//
//   - FailAt(n): exactly operation n fails, later operations succeed —
//     a transient I/O error (full disk briefly, EINTR, a flaky NFS).
//   - FailFrom(n): operation n and every operation after it fail — a
//     crash model: from the process's point of view, the world ended
//     at op n, and cleanup code running after the failure gets the
//     same dead disk the crash would have left.
//
// FailOn adds an orthogonal pattern hook (fail every sync, fail any
// op touching CURRENT, ...). An Injector is safe for concurrent use;
// operations from concurrent goroutines are counted in arrival order.
type Injector struct {
	inner FS

	mu       sync.Mutex
	ops      int64 // operations observed, guarded by mu
	injected int64 // failures injected, guarded by mu
	failAt   int64 // transient: exactly this op fails (1-based, 0 = off), guarded by mu
	failFrom int64 // crash: this op and all later ones fail (1-based, 0 = off), guarded by mu
	failOn   func(op Op, path string) bool
	err      error
}

// NewInjector wraps inner (nil selects OS) with a counting, failable
// seam.
//
//tiresias:ignore deadexport (test seam: the root and cmd/tiresias tests share it)
func NewInjector(inner FS) *Injector {
	if inner == nil {
		inner = OS{}
	}
	return &Injector{inner: inner}
}

// FailAt arms a transient failure: exactly the nth operation (1-based)
// from now fails; operations after it succeed. n <= 0 disarms.
func (in *Injector) FailAt(n int64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.failAt = 0
	if n > 0 {
		in.failAt = in.ops + n
	}
	return in
}

// FailFrom arms the crash model: the nth operation (1-based) from now
// and every operation after it fail. n <= 0 disarms.
func (in *Injector) FailFrom(n int64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.failFrom = 0
	if n > 0 {
		in.failFrom = in.ops + n
	}
	return in
}

// FailOn arms a pattern hook: every operation f reports true for
// fails. nil disarms.
func (in *Injector) FailOn(f func(op Op, path string) bool) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.failOn = f
	return in
}

// SetErr substitutes the injected error (default ErrInjected; the
// injected error always wraps it).
func (in *Injector) SetErr(err error) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.err = err
	return in
}

// Ops returns the number of operations observed so far.
func (in *Injector) Ops() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// Injected returns the number of failures injected so far.
func (in *Injector) Injected() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// check counts one operation and decides whether to fail it.
func (in *Injector) check(op Op, path string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops++
	fire := (in.failAt != 0 && in.ops == in.failAt) ||
		(in.failFrom != 0 && in.ops >= in.failFrom) ||
		(in.failOn != nil && in.failOn(op, path))
	if !fire {
		return nil
	}
	in.injected++
	base := in.err
	if base == nil {
		base = ErrInjected
	}
	return fmt.Errorf("%w: op %d (%s %s)", base, in.ops, op, path)
}

// Create implements FS.
func (in *Injector) Create(name string) (File, error) {
	if err := in.check(OpCreate, name); err != nil {
		return nil, err
	}
	f, err := in.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &injectorFile{in: in, inner: f, name: name}, nil
}

// Open implements FS.
func (in *Injector) Open(name string) (File, error) {
	if err := in.check(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := in.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &injectorFile{in: in, inner: f, name: name}, nil
}

// Mkdir implements FS.
func (in *Injector) Mkdir(name string, perm fs.FileMode) error {
	if err := in.check(OpMkdir, name); err != nil {
		return err
	}
	return in.inner.Mkdir(name, perm)
}

// MkdirAll implements FS.
func (in *Injector) MkdirAll(name string, perm fs.FileMode) error {
	if err := in.check(OpMkdirAll, name); err != nil {
		return err
	}
	return in.inner.MkdirAll(name, perm)
}

// Rename implements FS.
func (in *Injector) Rename(oldpath, newpath string) error {
	if err := in.check(OpRename, newpath); err != nil {
		return err
	}
	return in.inner.Rename(oldpath, newpath)
}

// Remove implements FS.
func (in *Injector) Remove(name string) error {
	if err := in.check(OpRemove, name); err != nil {
		return err
	}
	return in.inner.Remove(name)
}

// RemoveAll implements FS.
func (in *Injector) RemoveAll(name string) error {
	if err := in.check(OpRemoveAll, name); err != nil {
		return err
	}
	return in.inner.RemoveAll(name)
}

// ReadDir implements FS.
func (in *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := in.check(OpReadDir, name); err != nil {
		return nil, err
	}
	return in.inner.ReadDir(name)
}

// ReadFile implements FS.
func (in *Injector) ReadFile(name string) ([]byte, error) {
	if err := in.check(OpReadFile, name); err != nil {
		return nil, err
	}
	return in.inner.ReadFile(name)
}

// Glob implements FS.
func (in *Injector) Glob(pattern string) ([]string, error) {
	if err := in.check(OpGlob, pattern); err != nil {
		return nil, err
	}
	return in.inner.Glob(pattern)
}

// injectorFile threads the per-file operations of an opened file back
// through its Injector's counter.
type injectorFile struct {
	in    *Injector
	inner File
	name  string
}

// Read implements File.
func (f *injectorFile) Read(p []byte) (int, error) {
	if err := f.in.check(OpRead, f.name); err != nil {
		return 0, err
	}
	return f.inner.Read(p)
}

// Write implements File.
func (f *injectorFile) Write(p []byte) (int, error) {
	if err := f.in.check(OpWrite, f.name); err != nil {
		return 0, err
	}
	return f.inner.Write(p)
}

// Sync implements File.
func (f *injectorFile) Sync() error {
	if err := f.in.check(OpSync, f.name); err != nil {
		return err
	}
	return f.inner.Sync()
}

// Close implements File. An injected Close failure still closes the
// inner file: the descriptor is released either way (as on a real
// close(2) error), only the durability signal is lost.
func (f *injectorFile) Close() error {
	if err := f.in.check(OpClose, f.name); err != nil {
		f.inner.Close()
		return err
	}
	return f.inner.Close()
}
