// Benchmarks backing the wire-format claims: the binary codec must beat
// the JSON path by ≥5× on encode/decode throughput at 0 allocs/op.
// These (and their allocs/op in particular) are enforced by the CI perf
// gate against bench_baseline.json — see .github/workflows/ci.yml.
package codec

import (
	"encoding/json"
	"testing"

	arcs "arcs/internal/core"
	"arcs/internal/ompt"
)

// benchEntry mirrors a realistic stored record (the JSON form is ~150
// bytes).
var benchEntry = Entry{
	Key:     arcs.HistoryKey{App: "LULESH", Workload: "30", CapW: 72.5, Region: "CalcHourglassControlForElems"},
	Cfg:     arcs.ConfigValues{Threads: 16, Schedule: ompt.ScheduleGuided, Chunk: 8, FreqGHz: 2.4, Bind: ompt.BindSpread},
	Perf:    1.2345,
	Version: 17,
}

// jsonEntry is the shape the pre-binary WAL and wire used.
type jsonEntry struct {
	Key     arcs.HistoryKey   `json:"key"`
	Cfg     arcs.ConfigValues `json:"config"`
	Perf    float64           `json:"perf"`
	Version uint64            `json:"version"`
}

func BenchmarkCodecEncodeEntry(b *testing.B) {
	var enc Encoder
	buf := enc.AppendEntry(nil, &benchEntry)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = enc.AppendEntry(buf[:0], &benchEntry)
	}
}

func BenchmarkCodecDecodeEntry(b *testing.B) {
	var enc Encoder
	var dec Decoder
	buf := enc.AppendEntry(nil, &benchEntry)
	_, payload, _, err := Frame(buf)
	if err != nil {
		b.Fatal(err)
	}
	var e Entry
	if err := dec.DecodeEntry(payload, &e); err != nil {
		b.Fatal(err) // warm the intern table before measuring
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, payload, _, _ := Frame(buf)
		if err := dec.DecodeEntry(payload, &e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSONEncodeEntry(b *testing.B) {
	je := jsonEntry(benchEntry)
	data, err := json.Marshal(je)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(je); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSONDecodeEntry(b *testing.B) {
	data, err := json.Marshal(jsonEntry(benchEntry))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var e jsonEntry
	for i := 0; i < b.N; i++ {
		if err := json.Unmarshal(data, &e); err != nil {
			b.Fatal(err)
		}
	}
}

func benchReports(n int) []Report {
	reports := make([]Report, n)
	for i := range reports {
		reports[i] = Report{Key: benchEntry.Key, Cfg: benchEntry.Cfg, Perf: float64(i)}
		reports[i].Key.Region = [...]string{"r0", "r1", "r2", "r3"}[i%4]
	}
	return reports
}

func BenchmarkCodecEncodeReportBatch(b *testing.B) {
	reports := benchReports(64)
	var enc Encoder
	buf := enc.AppendReportBatch(nil, reports)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = enc.AppendReportBatch(buf[:0], reports)
	}
}

func BenchmarkCodecDecodeReportBatch(b *testing.B) {
	reports := benchReports(64)
	var enc Encoder
	var dec Decoder
	buf := enc.AppendReportBatch(nil, reports)
	_, payload, _, err := Frame(buf)
	if err != nil {
		b.Fatal(err)
	}
	sink := func(*Report) error { return nil }
	if err := dec.DecodeReportBatch(payload, sink); err != nil {
		b.Fatal(err) // warm the intern table
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.DecodeReportBatch(payload, sink); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSONEncodeReportBatch(b *testing.B) {
	type jsonReport struct {
		Key  arcs.HistoryKey   `json:"key"`
		Cfg  arcs.ConfigValues `json:"config"`
		Perf float64           `json:"perf"`
	}
	reports := benchReports(64)
	jr := make([]jsonReport, len(reports))
	for i, r := range reports {
		jr[i] = jsonReport(r)
	}
	data, err := json.Marshal(jr)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(jr); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSnapshotEntries(n int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = benchEntry
		entries[i].Key.CapW = float64(40 + i%60)
		entries[i].Key.Region = [...]string{"r0", "r1", "r2", "r3"}[i%4]
		entries[i].Version = uint64(i)
	}
	return entries
}

func BenchmarkCodecEncodeSnapshot(b *testing.B) {
	entries := benchSnapshotEntries(1024)
	var enc Encoder
	buf := enc.AppendSnapshot(nil, entries)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = enc.AppendSnapshot(buf[:0], entries)
	}
}
