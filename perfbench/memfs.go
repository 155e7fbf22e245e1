package main

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"arcs/internal/store"
)

// memFS is a memory-backed store.FS. Store directories live here so
// that fsync latency of a shared disk stays out of the measurements; the
// store still calls Sync, which is counted. It also counts the
// durability traffic each layer causes: WAL appends and bytes, and
// snapshot publications (renames onto the snapshot file).
type memFS struct {
	mu         sync.Mutex
	files      map[string][]byte // guarded by mu
	walAppends int64             // guarded by mu
	walBytes   int64             // guarded by mu
	snapshots  int64             // guarded by mu
	syncs      int64             // guarded by mu
}

func newMemFS() *memFS { return &memFS{files: make(map[string][]byte)} }

// fsCounts is a snapshot of memFS's counters.
type fsCounts struct {
	walAppends, walBytes, snapshots, syncs int64
}

func (m *memFS) counts() fsCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fsCounts{walAppends: m.walAppends, walBytes: m.walBytes, snapshots: m.snapshots, syncs: m.syncs}
}

func (c fsCounts) sub(o fsCounts) fsCounts {
	return fsCounts{
		walAppends: c.walAppends - o.walAppends, walBytes: c.walBytes - o.walBytes,
		snapshots: c.snapshots - o.snapshots, syncs: c.syncs - o.syncs,
	}
}

// copyDir duplicates every file under src into dst, so one prepared
// store image can be opened fresh many times.
func (m *memFS) copyDir(src, dst string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, data := range m.files {
		if filepath.Dir(name) == src {
			m.files[filepath.Join(dst, filepath.Base(name))] = append([]byte(nil), data...)
		}
	}
}

// removeDir drops every file under dir.
func (m *memFS) removeDir(dir string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.files {
		if filepath.Dir(name) == dir {
			delete(m.files, name)
		}
	}
}

func (m *memFS) MkdirAll(string, os.FileMode) error { return nil }

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (store.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.files[name]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case !ok || flag&os.O_TRUNC != 0:
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name, wal: filepath.Base(name) == store.WALName}, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), data...), nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	if filepath.Base(newpath) == store.SnapshotBinName {
		m.snapshots++
	}
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// memFile appends to its memFS entry; the store only ever writes files
// sequentially from their start or end and reads them through ReadFile.
type memFile struct {
	fs   *memFS
	name string
	wal  bool
}

func (f *memFile) Read([]byte) (int, error) { return 0, io.EOF }

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	if f.wal {
		f.fs.walAppends++
		f.fs.walBytes += int64(len(p))
	}
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.syncs++
	return nil
}

func (f *memFile) Close() error { return nil }
