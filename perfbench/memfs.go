package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/vfs"
)

// memFS is a memory-backed vfs.FS: the daemon workloads keep their state
// directory here so that disk latency, which varies far more between runs
// than the daemon's own work, stays out of the end-to-end figures, while
// the benchmark reads and writes nothing outside its checkout. Sync is a
// no-op, as on tmpfs; the traced run counts syncs instead of timing a
// disk.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
	seq   int
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

// clone copies every file, so each set-up replays the same state.
func (m *memFS) clone() *memFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &memFS{files: make(map[string][]byte, len(m.files)), seq: m.seq}
	for k, v := range m.files {
		c.files[k] = append([]byte(nil), v...)
	}
	return c
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (vfs.File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.files[name]
	switch {
	case ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case !ok && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case !ok || flag&os.O_TRUNC != 0:
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	m.mu.Lock()
	m.seq++
	suffix := fmt.Sprint(m.seq)
	m.mu.Unlock()
	name := pattern + suffix
	if i := strings.LastIndex(pattern, "*"); i >= 0 {
		name = pattern[:i] + suffix + pattern[i+1:]
	}
	return m.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, notExist("read", name)
	}
	return append([]byte(nil), data...), nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	return nil
}

func (m *memFS) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) Truncate(name string, size int64) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return notExist("truncate", name)
	}
	m.files[name] = resize(data, size)
	return nil
}

// resize cuts or zero-extends data to size bytes, like ftruncate.
func resize(data []byte, size int64) []byte {
	if size <= int64(len(data)) {
		return data[:size]
	}
	return append(data, make([]byte, size-int64(len(data)))...)
}

func (m *memFS) MkdirAll(string, os.FileMode) error { return nil }
func (m *memFS) SyncDir(string) error               { return nil }
func (m *memFS) Free(string) (int64, error)         { return -1, nil }

// memFile is an append-position handle on one memFS entry.
type memFile struct {
	fs   *memFS
	name string
}

func (f *memFile) Name() string              { return f.name }
func (f *memFile) Sync() error               { return nil }
func (f *memFile) Close() error              { return nil }
func (f *memFile) Chmod(os.FileMode) error   { return nil }
func (f *memFile) Truncate(size int64) error { return f.fs.Truncate(f.name, size) }
func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if _, ok := f.fs.files[f.name]; !ok {
		return 0, notExist("write", f.name)
	}
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}

// ioCounts are the storage-layer counters of the traced daemon run.
type ioCounts struct {
	syncs, writeBytes atomic.Int64
}

// countingFS counts the durability work every FS and File call does:
// file syncs, directory syncs and sync-carrying truncations are syncs.
// It counts rather than times them: over memFS a sync costs nothing, and
// the count is what a change to the durability path moves.
type countingFS struct {
	vfs.FS
	c *ioCounts
}

func (c countingFS) sync(f func() error) error {
	c.c.syncs.Add(1)
	return f()
}

func (c countingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c}, nil
}

func (c countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	return c.wrap(c.FS.OpenFile(name, flag, perm))
}

func (c countingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return c.wrap(c.FS.CreateTemp(dir, pattern))
}

func (c countingFS) Truncate(name string, size int64) error {
	return c.sync(func() error { return c.FS.Truncate(name, size) })
}

func (c countingFS) SyncDir(dir string) error {
	return c.sync(func() error { return c.FS.SyncDir(dir) })
}

type countingFile struct {
	vfs.File
	fs countingFS
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.c.writeBytes.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error { return f.fs.sync(f.File.Sync) }
