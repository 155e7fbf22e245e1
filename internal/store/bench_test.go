// Benchmarks backing the storage-format claims. WALAppend measures
// binary record construction, which must stay at 0 allocs/op;
// SnapshotReplay measures the full Open-and-replay path against a
// columnar snapshot. StoreGet and Snapshot
// back the canonical-key claims: an exact hit allocates nothing, and a
// compaction's allocations do not grow with the sort's comparisons.
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/ompt"
)

var benchWALEntry = Entry{
	Key:     arcs.HistoryKey{App: "LULESH", Workload: "30", CapW: 72.5, Region: "CalcHourglassControlForElems"},
	Cfg:     arcs.ConfigValues{Threads: 16, Schedule: ompt.ScheduleGuided, Chunk: 8, FreqGHz: 2.4, Bind: ompt.BindSpread},
	Perf:    1.2345,
	Version: 17,
}

func BenchmarkWALAppend(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		var enc codec.Encoder
		ce := codec.Entry(benchWALEntry)
		buf := enc.AppendEntry(nil, &ce)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = enc.AppendEntry(buf[:0], &ce)
		}
	})
}

// benchSnapshotDir writes a snapshot of n entries and returns the
// directory, ready for Open to replay.
func benchSnapshotDir(b *testing.B, n int) string {
	b.Helper()
	dir := b.TempDir()
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = benchWALEntry
		entries[i].Key.CapW = float64(40 + i%60)
		entries[i].Key.Region = [...]string{"r0", "r1", "r2", "r3"}[i%4]
		entries[i].Key.App = [...]string{"SP", "BT", "LU", "MG"}[(i/4)%4]
		entries[i].Version = uint64(i + 1)
	}
	ces := make([]codec.Entry, len(entries))
	for i, e := range entries {
		ces[i] = codec.Entry(e)
	}
	var enc codec.Encoder
	data := enc.AppendSnapshot(nil, ces)
	if err := os.WriteFile(filepath.Join(dir, SnapshotBinName), data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	return dir
}

func benchReplay(b *testing.B, dir string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() == 0 {
			b.Fatal("replayed nothing")
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotReplay(b *testing.B) {
	const n = 2048
	b.Run("binary", func(b *testing.B) { benchReplay(b, benchSnapshotDir(b, n)) })
}

// discardFS is an FS whose files swallow writes and whose reads find
// nothing, so the benchmarks below time the store, not the disk.
type discardFS struct{}

type discardFile struct{}

func (discardFS) MkdirAll(string, os.FileMode) error              { return nil }
func (discardFS) OpenFile(string, int, os.FileMode) (File, error) { return discardFile{}, nil }
func (discardFS) ReadFile(string) ([]byte, error)                 { return nil, os.ErrNotExist }
func (discardFS) Rename(string, string) error                     { return nil }
func (discardFS) Remove(string) error                             { return nil }

func (discardFile) Read([]byte) (int, error)    { return 0, io.EOF }
func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Close() error                { return nil }
func (discardFile) Sync() error                 { return nil }

// benchStore returns a store on discardFS holding n distinct keys.
func benchStore(b *testing.B, n int) (*Store, []arcs.HistoryKey) {
	b.Helper()
	s, err := Open("bench", Options{SnapshotEvery: -1, FS: discardFS{}})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]arcs.HistoryKey, n)
	for i := range keys {
		keys[i] = benchWALEntry.Key
		keys[i].App = [...]string{"SP", "BT", "LU", "MG"}[i%4]
		keys[i].CapW = float64(40 + i%60)
		keys[i].Region = fmt.Sprintf("region_%d", i)
		s.Save(keys[i], benchWALEntry.Cfg, benchWALEntry.Perf)
	}
	if s.Len() != n {
		b.Fatalf("store holds %d entries, want %d", s.Len(), n)
	}
	return s, keys
}

// BenchmarkStoreGet is an exact-hit lookup: the key is encoded into a
// stack buffer and hashed in place, so it must stay at 0 allocs/op.
func BenchmarkStoreGet(b *testing.B) {
	s, keys := benchStore(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkSnapshot compacts a 5k-entry store. Sorting compares the
// canonical keys the shard maps already hold, so allocs/op is a small
// constant plus O(1) per entry, never one key string per comparison.
func BenchmarkSnapshot(b *testing.B) {
	s, _ := benchStore(b, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
