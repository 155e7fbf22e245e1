package store

import (
	"os"
	"path/filepath"
	"testing"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
)

// FuzzStoreWAL mirrors core's FuzzLoadHistoryFile for the persistent
// store: arbitrary bytes in the WAL and the binary snapshot must never
// panic replay, and whatever replay accepts must round-trip through
// snapshot + reload.
func FuzzStoreWAL(f *testing.F) {
	var enc codec.Encoder
	entry := func(app string, threads int, perf float64, version uint64) codec.Entry {
		return codec.Entry{
			Key:  arcs.HistoryKey{App: app, Workload: "B", CapW: 70, Region: "x"},
			Cfg:  arcs.ConfigValues{Threads: threads, Schedule: 3, Chunk: 1},
			Perf: perf, Version: version,
		}
	}
	one, pipe, pipeOld := entry("SP", 16, 1.5, 1), entry("a|b", 0, 1, 2), entry("a|b", 4, 9, 1)
	frame := enc.AppendEntry(nil, &one)
	snap := enc.AppendSnapshot(nil, []codec.Entry{entry("BT", 8, 2, 7)})
	f.Add(frame, enc.AppendSnapshot(nil, nil))
	f.Add(frame[:len(frame)-3], snap)
	f.Add([]byte("\n\n\x00\xff garbage\n"), snap[:len(snap)/2])
	f.Add(enc.AppendEntry(enc.AppendEntry(nil, &pipe), &pipeOld), []byte(``))
	f.Add([]byte(``), []byte(``))
	f.Fuzz(func(t *testing.T, wal, snapshot []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, WALName), wal, 0o644); err != nil {
			t.Skip()
		}
		if err := os.WriteFile(filepath.Join(dir, SnapshotBinName), snapshot, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(dir, Options{SnapshotEvery: -1})
		if err != nil {
			return
		}
		// The store must stay writable whatever it replayed.
		k := arcs.HistoryKey{App: "fuzz", Workload: "w", CapW: 70, Region: "r"}
		s.Save(k, arcs.ConfigValues{Threads: 8}, 0.5)
		if _, ok := s.Load(k); !ok {
			t.Fatalf("store not writable after replaying fuzz input")
		}
		accepted := s.Entries()
		// Round trip: snapshot, reload, compare entry-for-entry.
		if err := s.Snapshot(); err != nil {
			t.Fatalf("snapshot of replayed store failed: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close failed: %v", err)
		}
		s2, err := Open(dir, Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("reload failed: %v", err)
		}
		defer s2.Close()
		reloaded := s2.Entries()
		if len(reloaded) != len(accepted) {
			t.Fatalf("round trip changed entry count: %d -> %d", len(accepted), len(reloaded))
		}
		for _, e := range accepted {
			got, ok := s2.Get(e.Key)
			if !ok || got != e {
				t.Fatalf("entry %v lost or changed in round trip: %+v vs %+v", e.Key, e, got)
			}
		}
	})
}
