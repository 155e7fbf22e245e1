package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/fleet"
	"arcs/internal/store"
	"arcs/internal/storeclient"
)

// getFrame GETs url without an Accept header and returns the payload
// of the one frame of the given kind the frame-only endpoint answers.
func getFrame(t *testing.T, url string, want byte) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != codec.ContentType {
		t.Fatalf("GET %s without Accept: Content-Type %q, want %q", url, ct, codec.ContentType)
	}
	kind, payload, n, err := codec.Frame(body)
	if err != nil || kind != want || n != len(body) {
		t.Fatalf("GET %s: frame kind %#x (%d of %d bytes) err %v, want one kind %#x frame", url, kind, n, len(body), err, want)
	}
	return payload
}

// postMerge POSTs body to /v1/merge with the given Content-Type and
// returns the status and, on success, the Ack frame's saved count.
func postMerge(t *testing.T, base string, body []byte, ct string) (int, uint64) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/merge", bytes.NewReader(body))
	req.Header.Set("Content-Type", ct)
	req.Header.Set("Accept", codec.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, 0
	}
	kind, payload, _, err := codec.Frame(data)
	if err != nil || kind != codec.KindAck {
		t.Fatalf("merge ack: kind %#x err %v", kind, err)
	}
	var dec codec.Decoder
	var ack codec.Ack
	if err := dec.DecodeAck(payload, &ack); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ack.Saved
}

// TestDigestEndpoint checks /v1/digest standalone: the per-shard
// digests must partition the store's keys with the stored versions,
// arrive as one frame even without an Accept header, and reject bad
// shard numbers.
func TestDigestEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := newTestServer(t, Config{Store: st})

	keys := map[string]uint64{}
	for i := 0; i < 20; i++ {
		k := arcs.HistoryKey{App: "BT", Workload: "C", CapW: float64(50 + i), Region: "r"}
		st.Save(k, arcs.ConfigValues{Threads: 4}, 2)
		st.Save(k, arcs.ConfigValues{Threads: 8}, 1) // version 2
		keys[k.String()] = 2
	}

	got := map[string]uint64{}
	var dec codec.Decoder
	for shard := 0; shard < store.NumShards; shard++ {
		payload := getFrame(t, fmt.Sprintf("%s/v1/digest?shard=%d", ts.URL, shard), codec.KindDigest)
		d, err := dec.DecodeDigest(payload)
		if err != nil {
			t.Fatal(err)
		}
		if int(d.Shard) != shard {
			t.Fatalf("digest shard = %d, want %d", d.Shard, shard)
		}
		for _, e := range d.Entries {
			got[e.Key] = e.Version
		}
	}
	if len(got) != len(keys) {
		t.Fatalf("digests cover %d keys, store has %d", len(got), len(keys))
	}
	for ck, v := range keys {
		if got[ck] != v {
			t.Fatalf("digest version for %q = %d, want %d", ck, got[ck], v)
		}
	}

	for _, q := range []string{"", "shard=-1", "shard=16", "shard=x"} {
		resp, err := http.Get(ts.URL + "/v1/digest?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("digest %q status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestMergeEndpoint checks /v1/merge: versioned KindEntry frames are
// applied under Supersedes (idempotent re-sends merge zero), serve
// afterwards, and non-finite perf and JSON bodies are rejected.
func TestMergeEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := newTestServer(t, Config{Store: st})

	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "main"}
	var enc codec.Encoder
	ce := codec.Entry{Key: k, Cfg: arcs.ConfigValues{Threads: 16}, Perf: 1.5, Version: 7}
	body := enc.AppendEntry(nil, &ce)
	if code, saved := postMerge(t, ts.URL, body, codec.ContentType); code != http.StatusOK || saved != 1 {
		t.Fatalf("merge = %d saved=%d, want 200 saved=1", code, saved)
	}
	// Idempotent: the identical entry merges zero the second time.
	if code, saved := postMerge(t, ts.URL, body, codec.ContentType); code != http.StatusOK || saved != 0 {
		t.Fatalf("re-merge = %d saved=%d, want 200 saved=0", code, saved)
	}
	if e, ok := st.Get(k); !ok || e.Version != 7 || e.Cfg.Threads != 16 {
		t.Fatalf("merged entry = %+v ok=%v", e, ok)
	}

	// A concatenation of frames: the higher version wins.
	ce = codec.Entry{Key: k, Cfg: arcs.ConfigValues{Threads: 32}, Perf: 1.2, Version: 9}
	ce2 := codec.Entry{Key: arcs.HistoryKey{App: "LU", Region: "r"}, Cfg: arcs.ConfigValues{Threads: 2}, Perf: 3, Version: 1}
	bin := enc.AppendEntry(nil, &ce)
	bin = enc.AppendEntry(bin, &ce2)
	if code, saved := postMerge(t, ts.URL, bin, codec.ContentType); code != http.StatusOK || saved != 2 {
		t.Fatalf("two-frame merge = %d saved=%d, want 200 saved=2", code, saved)
	}
	if e, _ := st.Get(k); e.Version != 9 || e.Cfg.Threads != 32 {
		t.Fatalf("after two-frame merge entry = %+v", e)
	}

	bad := codec.Entry{Key: arcs.HistoryKey{App: "X", Region: "r"}, Perf: math.NaN(), Version: 1}
	if code, _ := postMerge(t, ts.URL, enc.AppendEntry(nil, &bad), codec.ContentType); code != http.StatusBadRequest {
		t.Fatalf("NaN-perf merge status = %d, want 400", code)
	}

	// Frame-only: a JSON body that would supersede gets a 4xx and
	// leaves the store unchanged.
	before := st.Entries()
	newer, _ := json.Marshal([]store.Entry{
		{Key: k, Cfg: arcs.ConfigValues{Threads: 8}, Perf: 1, Version: 20},
		{Key: arcs.HistoryKey{App: "MG", Region: "r"}, Perf: 1, Version: 1},
	})
	for _, ct := range []string{"application/json", ""} {
		if code, _ := postMerge(t, ts.URL, newer, ct); code < 400 || code >= 500 {
			t.Fatalf("JSON merge (Content-Type %q) status = %d, want 4xx", ct, code)
		}
	}
	if after := st.Entries(); !slices.Equal(after, before) {
		t.Fatalf("rejected JSON merge changed the store: %+v -> %+v", before, after)
	}
}

// TestFleetLookupForwarding checks the /v1/config proxy path: a fleet
// member that does not own a key forwards the lookup one hop to the
// owner, marks the hop with the forwarded header, and an
// already-forwarded request is answered locally no matter who owns it.
func TestFleetLookupForwarding(t *testing.T) {
	// Stub owner: answers every config lookup with the frame the peer
	// client asks for, and records the header.
	var sawForwarded bool
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/config" {
			http.NotFound(w, r)
			return
		}
		sawForwarded = r.Header.Get(codec.ForwardedHeader) != ""
		writeConfig(w, r, ConfigResponse{
			Config: arcs.ConfigValues{Threads: 64}, Perf: 1.25, Version: 3, Source: "exact",
		})
	}))
	t.Cleanup(owner.Close)

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	self := "http://self.invalid"
	peer := storeclient.New(owner.URL)
	fl, err := fleet.New(fleet.Config{
		Self:  self,
		Nodes: []string{self, owner.URL},
		// One owner per key: whatever self does not own, the stub does.
		Replicas: 1,
		Store:    st,
		Peers:    map[string]fleet.Peer{owner.URL: peer},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{
		Store: st, Fleet: fl,
		PeerClient: func(name string) *storeclient.Client {
			if name == owner.URL {
				return peer
			}
			return nil
		},
	})

	// Find a key the stub owns.
	var stubKey arcs.HistoryKey
	for i := 0; ; i++ {
		k := arcs.HistoryKey{App: "BT", Workload: "A", CapW: 70, Region: fmt.Sprintf("r%d", i)}
		if fl.Ring().Primary(k.String()) == owner.URL {
			stubKey = k
			break
		}
	}

	q := fmt.Sprintf("app=%s&workload=%s&cap=%g&region=%s&fallback=0&search=0",
		stubKey.App, stubKey.Workload, stubKey.CapW, stubKey.Region)
	cr, code := getConfig(t, ts.URL, q)
	if code != http.StatusOK || cr.Config.Threads != 64 || cr.Version != 3 {
		t.Fatalf("forwarded lookup = %d %+v, want the stub's answer", code, cr)
	}
	if !sawForwarded {
		t.Fatal("forwarded lookup did not carry the forwarded header")
	}

	// Already-forwarded request for the same (unowned, absent) key: no
	// second hop, answered locally as a miss.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/config?"+q, nil)
	req.Header.Set(codec.ForwardedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("already-forwarded lookup status = %d, want 404 (local miss)", resp.StatusCode)
	}
}

// TestFleetHealthAndMetrics checks the observability wiring: /healthz
// grows a fleet section and /metrics the arcsd_fleet_* series when the
// server is a fleet member.
func TestFleetHealthAndMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	self := "http://a.invalid"
	other := "http://b.invalid"
	peer := storeclient.New(other)
	fl, err := fleet.New(fleet.Config{
		Self: self, Nodes: []string{self, other}, Replicas: 2,
		Store: st, Peers: map[string]fleet.Peer{other: peer},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Store: st, Fleet: fl, PeerClient: func(name string) *storeclient.Client {
		if name == other {
			return peer
		}
		return nil
	}})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hr.Fleet == nil || hr.Fleet.Self != self || len(hr.Fleet.Nodes) != 2 || hr.Fleet.Replicas != 2 {
		t.Fatalf("healthz fleet section = %+v", hr.Fleet)
	}
	if hr.Fleet.Epoch != 1 {
		t.Fatalf("healthz fleet epoch = %d, want 1", hr.Fleet.Epoch)
	}
	if hr.Fleet.OwnedShare <= 0 || hr.Fleet.OwnedShare >= 1 {
		t.Fatalf("owned share = %v, want within (0,1)", hr.Fleet.OwnedShare)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	for _, series := range []string{
		"arcsd_fleet_nodes 2", "arcsd_fleet_replicas 2",
		"arcsd_fleet_handoff_depth 0", "arcsd_fleet_sweeps_total 0",
		"arcsd_fleet_epoch 1", "arcsd_fleet_hints_dropped_total 0",
		"arcsd_fleet_peers_suspect 0", "arcsd_fleet_peers_dead 0",
		"arcsd_fleet_membership_changes_total 0",
		"arcsd_fleet_transferred_in_total 0", "arcsd_fleet_drained_total 0",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(series)) {
			t.Fatalf("metrics missing %q in:\n%s", series, buf.String())
		}
	}
}
