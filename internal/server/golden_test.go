package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	arcs "arcs/internal/core"
	"arcs/internal/fleet"
	"arcs/internal/ompt"
	"arcs/internal/store"
)

// goldenKeyOutputs are SHA-256 digests of every output derived from the
// canonical key order or placement, for the seeded store built by
// TestCanonicalOutputsGolden. They were recorded from the string-key
// implementation (fmt.Sprintf keys, hash/fnv placement, sort.Slice over
// HistoryKey.String), so a change that moves any byte of a snapshot
// file, a /v1/dump stream, a per-shard digest, the key→shard mapping or
// ring placement fails here.
var goldenKeyOutputs = map[string]string{
	"snapshot":    "4cb986ae019e5709199fecca82e3ab7a799f567d8ef7c06e50f7eb21fa8ae61b",
	"dump.json":   "d3a98af101021a083d3d7613cf3dd9677464b6834b204686c0d8ae2893463edd",
	"dump.bin":    "9f635cdfe645c8b7451d0d62dd4cfc23a9eb93f4b2da9baa94765be67eebaaf9",
	"digests.bin": "d3fa4ef0208063a514a2af4398b8378283a01879a069d26d89fd2a30a3912be8",
	"shards":      "e559c7310402cbc3bf1077688cb14db192f13b52703b7070dc52e35a3f883c81",
	"owners":      "f1e8af672d8acb4e2f34fad8e728666514d0e5c6a476d3e8eeda2320e3af2241",
}

func goldenKeys() []arcs.HistoryKey {
	rng := rand.New(rand.NewSource(2016))
	fields := []string{"SP", "BT", "LU", "a|b", `c\d`, "", `|`, `\`, "x_solve", "é"}
	caps := []float64{0, math.Copysign(0, -1), 1e21, 1e-7, 5e-324, 55, 62.5, 70, 85, 115, 0.1}
	keys := make([]arcs.HistoryKey, 600)
	for i := range keys {
		keys[i] = arcs.HistoryKey{
			App:      fields[rng.Intn(len(fields))],
			Workload: fields[rng.Intn(len(fields))],
			CapW:     caps[rng.Intn(len(caps))],
			Region:   fmt.Sprintf("r%d%s", rng.Intn(40), fields[rng.Intn(len(fields))]),
		}
	}
	return keys
}

// TestCanonicalOutputsGolden pins the byte-level outputs of the key
// order and placement: the snapshot file, /v1/dump (JSON and binary),
// /v1/digest for every shard, each key's shard and its ring owners.
func TestCanonicalOutputsGolden(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	keys := goldenKeys()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 3*len(keys); i++ {
		k := keys[rng.Intn(len(keys))]
		cfg := arcs.ConfigValues{
			Threads:  1 + rng.Intn(32),
			Schedule: ompt.ScheduleKind(rng.Intn(3)),
			Chunk:    1 << rng.Intn(8),
			FreqGHz:  1.2 + float64(rng.Intn(12))/10,
		}
		st.Save(k, cfg, 10-float64(i)/float64(len(keys)))
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Store: st})

	got := map[string]string{}
	sum := func(name string, data []byte) {
		h := sha256.Sum256(data)
		got[name] = hex.EncodeToString(h[:])
	}
	snap, err := os.ReadFile(filepath.Join(dir, store.SnapshotBinName))
	if err != nil {
		t.Fatal(err)
	}
	sum("snapshot", snap)
	fetch := func(path string, binary bool) []byte {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if binary {
			req = binReq(t, http.MethodGet, ts.URL+path, nil)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		return body
	}
	sum("dump.json", fetch("/v1/dump", false))
	sum("dump.bin", fetch("/v1/dump", true))
	var digests []byte
	for i := 0; i < store.NumShards; i++ {
		digests = append(digests, fetch(fmt.Sprintf("/v1/digest?shard=%d", i), true)...)
	}
	sum("digests.bin", digests)

	var shards, owners strings.Builder
	for i := 0; i < store.NumShards; i++ {
		for _, e := range st.ShardEntries(i) {
			fmt.Fprintf(&shards, "%d %s\n", i, e.Key)
		}
	}
	sum("shards", []byte(shards.String()))
	ring, err := fleet.NewRing([]string{"http://n1:8091", "http://n2:8091", "http://n3:8091", "http://n4:8091"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		byString, byKey := ring.Owners(k.String(), 3, nil), ring.KeyOwners(k, 3, nil)
		if fmt.Sprint(byString) != fmt.Sprint(byKey) {
			t.Errorf("%s: KeyOwners %v, Owners(String) %v", k, byKey, byString)
		}
		fmt.Fprintf(&owners, "%s %v\n", k, byString)
	}
	sum("owners", []byte(owners.String()))

	for name, want := range goldenKeyOutputs {
		if got[name] != want {
			t.Errorf("%s digest = %s, want %s", name, got[name], want)
		}
	}
}
