package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestNewRNGStreamsAreReproducibleAndIndependent(t *testing.T) {
	a, b := newRNG(7, "ops"), newRNG(7, "ops")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed and stream gave different sequences")
		}
	}
	if newRNG(7, "ops").Int63() == newRNG(7, "warm").Int63() {
		t.Error("different streams share their first value")
	}
	if newRNG(7, "ops").Int63() == newRNG(8, "ops").Int63() {
		t.Error("different seeds share their first value")
	}
}

func TestZipfIndicesDeterministicInRangeAndSkewed(t *testing.T) {
	const n, count = 1000, 20000
	a := zipfIndices(newRNG(1, "z"), n, count, 1.1)
	b := zipfIndices(newRNG(1, "z"), n, count, 1.1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different op lists")
	}
	if len(a) != count {
		t.Fatalf("got %d ops, want %d", len(a), count)
	}
	freq := make(map[int]int)
	for _, k := range a {
		if k < 0 || k >= n {
			t.Fatalf("index %d outside [0,%d)", k, n)
		}
		freq[k]++
	}
	hottest := 0
	for k, f := range freq {
		if f > freq[hottest] {
			hottest = k
		}
	}
	// Zipf(1.1) over 1000 keys puts well over 10% of ops on the hottest
	// key; a uniform draw would put about 0.1% there.
	if share := float64(freq[hottest]) / count; share < 0.10 {
		t.Errorf("hottest key has %.3f of ops, want a Zipf skew above 0.10", share)
	}
	// The permutation scatters the hot set: rank 0 is not always key 0.
	hot := map[int]bool{}
	for s := int64(0); s < 5; s++ {
		z := zipfIndices(newRNG(s, "z"), n, 2000, 1.1)
		f := map[int]int{}
		top := z[0]
		for _, k := range z {
			f[k]++
			if f[k] > f[top] {
				top = k
			}
		}
		hot[top] = true
	}
	if len(hot) < 2 {
		t.Error("the hottest key is the same for every seed")
	}
	if got := zipfIndices(newRNG(1, "z"), 1, 5, 1.1); !reflect.DeepEqual(got, []int{0, 0, 0, 0, 0}) {
		t.Errorf("one-key op list = %v", got)
	}
	if got := zipfIndices(newRNG(1, "z"), 0, 5, 1.1); got != nil {
		t.Errorf("empty key space gave %v", got)
	}
}

func TestSampleDistinct(t *testing.T) {
	got := sampleDistinct(newRNG(3, "s"), 50, 20)
	if len(got) != 20 {
		t.Fatalf("got %d indices, want 20", len(got))
	}
	seen := map[int]bool{}
	for _, i := range got {
		if i < 0 || i >= 50 || seen[i] {
			t.Fatalf("index %d repeated or out of range in %v", i, got)
		}
		seen[i] = true
	}
	if !reflect.DeepEqual(got, sampleDistinct(newRNG(3, "s"), 50, 20)) {
		t.Error("same seed gave a different sample")
	}
	if len(sampleDistinct(newRNG(3, "s"), 5, 9)) != 5 {
		t.Error("k is not clamped to n")
	}
}

func TestSyntheticKeysAreDistinct(t *testing.T) {
	seen := map[string]int{}
	ks := newKeySpace("r")
	for i := 0; i < 20000; i++ {
		ck := ks.key(i).String()
		if j, ok := seen[ck]; ok {
			t.Fatalf("keys %d and %d collide: %s", j, i, ck)
		}
		seen[ck] = i
	}
	if newKeySpace("a").key(1) == newKeySpace("b").key(1) {
		t.Error("prefixes do not separate key spaces")
	}
}

func TestGenReportsPartitionsKeysByClient(t *testing.T) {
	ops := genReports(newRNG(1, "g"), "ing", 100, 40)
	if !reflect.DeepEqual(ops.reports, genReports(newRNG(1, "g"), "ing", 100, 40).reports) {
		t.Fatal("same seed gave different reports")
	}
	if ops.len() != 40 {
		t.Fatalf("got %d ops, want 40", ops.len())
	}
	owner := map[int]int{}
	for i := 0; i < ops.len(); i++ {
		batch := ops.fill(nil, i)
		if len(batch) != ingestBatch {
			t.Fatalf("op %d has %d reports, want %d", i, len(batch), ingestBatch)
		}
		for j, r := range ops.op(i) {
			if r.key < 0 || r.key >= 100 {
				t.Fatalf("key index %d outside the key space", r.key)
			}
			if c, ok := owner[r.key]; ok && c != i%clients {
				t.Fatalf("key %d reported by clients %d and %d", r.key, c, i%clients)
			}
			owner[r.key] = i % clients
			if batch[j].Key != ops.keys.key(r.key) || batch[j].Perf != r.perf {
				t.Fatalf("op %d report %d sent as %+v", i, j, batch[j])
			}
		}
	}
}

func TestParseReferenceDropsTimingLines(t *testing.T) {
	text := "A table\nrow 1\n[a completed in 0.1s]\n\n" + strings.Repeat("=", 64) + "\n\nB\n[b completed in 12.0s]\n\n[suite: 2 experiment(s) in 12.1s at -j 1]\n  a    0.1s\n  b   12.0s\n"
	got, order := parseReference(text)
	want := map[string]string{"a": "A table\nrow 1\n", "b": "B\n"}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(order, []string{"a", "b"}) {
		t.Errorf("parseReference = %q %v, want %q [a b]", got, order, want)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json's metric declaration
// and the program's metric catalog in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, have)
	}
	var wantLayers, haveLayers []string
	for _, m := range spec.PerLayer {
		wantLayers = append(wantLayers, m.Name+" "+m.Unit)
	}
	for _, m := range layerMetrics {
		haveLayers = append(haveLayers, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(wantLayers, haveLayers) {
		t.Errorf("per_layer metrics differ:\nBENCHMARK.json %v\nprogram        %v", wantLayers, haveLayers)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	fake := &pass{setupS: []float64{1}, loop: loopResult{lat: []time.Duration{time.Millisecond}, wall: time.Second}}
	var prog []string
	for _, m := range endToEnd(fake) {
		prog = append(prog, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(e2e, prog) {
		t.Errorf("end_to_end metrics: BENCHMARK.json %v, program %v", e2e, prog)
	}
}
