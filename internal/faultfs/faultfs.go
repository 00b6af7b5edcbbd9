// Package faultfs is the injectable filesystem the durability layer writes
// through. Production code uses the passthrough OS implementation; the
// crash-consistency suite swaps in a Faulty wrapper that counts every
// mutating operation and simulates a machine dying at an exact one —
// optionally tearing the write in progress — so recovery can be asserted
// correct at every write/rename/fsync site the protocol has.
//
// The simulated failure model is a process/machine crash, not media loss:
// operations completed before the kill point remain on disk exactly as
// written (the page cache survives a process death, and the WAL's sync
// policy governs power loss separately); the operation at the kill point
// either does nothing or — in torn mode, for writes — persists only a
// prefix; every operation after it fails with ErrCrashed.
package faultfs

import (
	"errors"
	"io"
	"os"
	"sync"
)

// Op classifies one filesystem operation for fault injection.
type Op string

// The mutating operations a Faulty filesystem counts as kill points.
// Read-only operations (Open for read, ReadFile, ReadDir, Stat) are never
// kill points: a crash cannot corrupt state through a read.
const (
	OpCreate    Op = "create"    // OpenFile with O_CREATE
	OpWrite     Op = "write"     // File.Write
	OpSync      Op = "sync"      // File.Sync (file or directory fsync)
	OpTruncate  Op = "truncate"  // File.Truncate or FS.Truncate
	OpRename    Op = "rename"    // FS.Rename
	OpRemove    Op = "remove"    // FS.Remove
	OpRemoveAll Op = "removeall" // FS.RemoveAll
	OpMkdir     Op = "mkdir"     // FS.MkdirAll
	OpWriteFile Op = "writefile" // FS.WriteFile
)

// ErrCrashed marks every operation attempted at or after the simulated
// kill point.
var ErrCrashed = errors.New("faultfs: simulated crash")

// File is the open-file surface the WAL, its tail readers and the
// checkpoint writers need.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// FS is the filesystem surface internal/wal and internal/durable go
// through. It deliberately mirrors the os package's signatures so the
// passthrough implementation is trivial and call sites stay idiomatic.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens for reading (also used to fsync directories by path).
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	Truncate(name string, size int64) error
}

// OS is the passthrough implementation backed by the real os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)             { return os.Open(name) }
func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)      { return os.Stat(name) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                { return os.RemoveAll(path) }
func (osFS) Truncate(name string, size int64) error     { return os.Truncate(name, size) }
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

// Faulty wraps an inner FS with fault injection. Safe for concurrent use.
type Faulty struct {
	inner FS

	mu      sync.Mutex
	ops     int64
	crashAt int64
	torn    bool
	crashed bool
	// failOn, when set, is consulted before every mutating operation (even
	// without a kill point armed); a non-nil return fails that operation.
	failOn func(op Op, path string) error
}

// New returns a Faulty filesystem over inner (typically OS) with no faults
// armed: until CrashAt or SetFailOn is called it behaves as a counting
// passthrough.
func New(inner FS) *Faulty {
	if inner == nil {
		inner = OS
	}
	return &Faulty{inner: inner}
}

// CrashAt arms the kill point: the n-th mutating operation (1-based)
// fails with ErrCrashed — after persisting a prefix of its buffer when
// torn is set and the operation is a write — and every operation after it
// fails too. n <= 0 disarms.
func (f *Faulty) CrashAt(n int64, torn bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt, f.torn = n, torn
	f.crashed = false
	f.ops = 0
}

// SetFailOn installs a per-operation error hook for targeted fault tests
// (e.g. "every fsync on this path fails"). nil removes it.
func (f *Faulty) SetFailOn(fn func(op Op, path string) error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failOn = fn
}

// Crashed reports whether the armed kill point was reached.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Ops returns the number of mutating operations attempted so far.
func (f *Faulty) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// before accounts one mutating operation and decides its fate: a nil
// error (run it), ErrCrashed (kill point reached or already crashed), or
// an injected error. tearNow reports that this exact operation is the
// kill point in torn mode — the caller should persist a prefix before
// failing.
func (f *Faulty) before(op Op, path string) (tearNow bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return false, ErrCrashed
	}
	f.ops++
	if f.crashAt > 0 && f.ops >= f.crashAt {
		f.crashed = true
		return f.torn && (op == OpWrite || op == OpWriteFile), ErrCrashed
	}
	if f.failOn != nil {
		if ferr := f.failOn(op, path); ferr != nil {
			return false, ferr
		}
	}
	return false, nil
}

func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	if _, err := f.before(OpMkdir, path); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *Faulty) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&os.O_CREATE != 0 {
		if _, err := f.before(OpCreate, name); err != nil {
			return nil, err
		}
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, name: name, inner: file}, nil
}

func (f *Faulty) Open(name string) (File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, name: name, inner: file}, nil
}

func (f *Faulty) ReadFile(name string) ([]byte, error)       { return f.inner.ReadFile(name) }
func (f *Faulty) ReadDir(name string) ([]os.DirEntry, error) { return f.inner.ReadDir(name) }
func (f *Faulty) Stat(name string) (os.FileInfo, error)      { return f.inner.Stat(name) }

func (f *Faulty) Rename(oldpath, newpath string) error {
	if _, err := f.before(OpRename, oldpath); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Faulty) Remove(name string) error {
	if _, err := f.before(OpRemove, name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *Faulty) RemoveAll(path string) error {
	if _, err := f.before(OpRemoveAll, path); err != nil {
		return err
	}
	return f.inner.RemoveAll(path)
}

func (f *Faulty) Truncate(name string, size int64) error {
	if _, err := f.before(OpTruncate, name); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

func (f *Faulty) WriteFile(name string, data []byte, perm os.FileMode) error {
	tear, err := f.before(OpWriteFile, name)
	if err != nil {
		if tear {
			_ = f.inner.WriteFile(name, data[:len(data)/2], perm)
		}
		return err
	}
	return f.inner.WriteFile(name, data, perm)
}

// faultyFile routes a file's mutating calls through its filesystem's
// fault state. Close is never a kill point: closing a descriptor writes
// no data, and a crashed process's descriptors close anyway.
type faultyFile struct {
	fs    *Faulty
	name  string
	inner File
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	tear, err := ff.fs.before(OpWrite, ff.name)
	if err != nil {
		if tear && len(p) > 1 {
			// The kill point tears this write: persist a prefix, then die.
			_, _ = ff.inner.Write(p[:len(p)/2])
		}
		return 0, err
	}
	return ff.inner.Write(p)
}

func (ff *faultyFile) Sync() error {
	if _, err := ff.fs.before(OpSync, ff.name); err != nil {
		return err
	}
	return ff.inner.Sync()
}

func (ff *faultyFile) Truncate(size int64) error {
	if _, err := ff.fs.before(OpTruncate, ff.name); err != nil {
		return err
	}
	return ff.inner.Truncate(size)
}

// ReadAt is a read, never a kill point.
func (ff *faultyFile) ReadAt(p []byte, off int64) (int, error) { return ff.inner.ReadAt(p, off) }

func (ff *faultyFile) Close() error { return ff.inner.Close() }
