package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/server"
	"arcs/internal/store"
	"arcs/internal/storeclient"
)

// lookup-hot: two clients do binary exact-hit lookups, Zipf-skewed, on
// one arcsd whose store replays a seeded ~100k-entry snapshot at set-up.
const (
	lookupEntries = 100_000
	lookupZipfS   = 1.1
	lookupPerSec  = 28_000 // ops per second of --seconds
	lookupWarmOps = 4_000
	lookupDir     = "lookup-hot/store"
)

type lookupHot struct {
	fs *memFS
	// want holds each preloaded record's value by key index; keys are
	// rebuilt from the index. Both are pointer-free, so the benchmark's
	// own data adds no GC marking work to the daemon it measures.
	want []lookupAnswer
	keys *keySpace
	ops  []int // key index per timed op
	warm []int // key index per warm-up op
}

func prepareLookupHot(cfg *config) (instance, error) {
	r := newRNG(cfg.seed, "lookup-hot/values")
	w := &lookupHot{fs: newMemFS(), want: make([]lookupAnswer, lookupEntries), keys: newKeySpace("r")}
	st, err := store.Open(lookupDir, store.Options{FS: w.fs, SnapshotEvery: -1})
	if err != nil {
		return nil, err
	}
	for i := range w.want {
		w.want[i] = lookupAnswer{cfg: randomConfig(r), perf: 1 + 99*r.Float64()}
		st.Save(w.keys.key(i), w.want[i].cfg, w.want[i].perf)
	}
	if err := st.Snapshot(); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	w.ops = zipfIndices(newRNG(cfg.seed, "lookup-hot/ops"), lookupEntries, lookupPerSec*cfg.seconds, lookupZipfS)
	w.warm = zipfIndices(newRNG(cfg.seed, "lookup-hot/warm"), lookupEntries, lookupWarmOps, lookupZipfS)
	return w, nil
}

// lookupAnswer is the value a lookup of one preloaded key must return,
// at version 1.
type lookupAnswer struct {
	cfg  arcs.ConfigValues
	perf float64
}

type lookupSystem struct {
	w          *lookupHot
	node       *node
	srv        *server.Server
	clients    []*storeclient.Client
	transports []*http.Transport
	hits       int64
	accepts    int64 // connections accepted during the timed ops
}

// stage has nothing to restore: lookups never write the store.
func (w *lookupHot) stage() {}

func (w *lookupHot) setup(tr *tracer) (system, error) {
	st, err := store.Open(lookupDir, store.Options{FS: w.fs})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Store: st})
	ln, err := listen()
	if err != nil {
		st.Close()
		return nil, err
	}
	n := startNode(ln, st, srv, tr, 10)
	s := &lookupSystem{w: w, node: n, srv: srv}
	for c := 0; c < clients; c++ {
		hc, t := newHTTPClient(tr, "http.roundtrip", c, nil)
		s.clients = append(s.clients, storeclient.New("http://"+n.addr, storeclient.WithBinary(), storeclient.WithHTTPClient(hc)))
		s.transports = append(s.transports, t)
	}
	if err := s.clients[0].Health(context.Background()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *lookupSystem) lookup(ctx context.Context, c, key int) error {
	k, want := s.w.keys.key(key), s.w.want[key]
	got, err := s.clients[c].Lookup(ctx, k, storeclient.LookupOpts{})
	if err != nil {
		return err
	}
	if got.Source != "exact" || got.Key != k || got.Config != want.cfg || got.Perf != want.perf || got.Version != 1 {
		return fmt.Errorf("lookup %v answered %+v, want the preloaded %+v at version 1", k, got, want)
	}
	return nil
}

func (s *lookupSystem) warmup(ctx context.Context) error {
	res := closedLoop(ctx, nil, len(s.w.warm), [][]int{sequence(len(s.w.warm))}, func(ctx context.Context, c, i int) error {
		return s.lookup(ctx, c, s.w.warm[i])
	})
	return res.firstErr
}

func (s *lookupSystem) run(ctx context.Context, tr *tracer) loopResult {
	accepts := s.node.accepts.Load()
	defer func() { s.accepts = s.node.accepts.Load() - accepts }()
	res := closedLoop(ctx, tr, len(s.w.ops), [][]int{sequence(len(s.w.ops))}, func(ctx context.Context, c, i int) error {
		return s.lookup(ctx, c, s.w.ops[i])
	})
	s.hits = int64(len(s.w.ops) - res.failed)
	return res
}

// verify has nothing left to check: every answer was compared with its
// preloaded entry as it arrived.
func (s *lookupSystem) verify(context.Context) error { return nil }

func (s *lookupSystem) counts() []count {
	return []count{{"count.exact_hits", s.hits}}
}

func (s *lookupSystem) layers(ctx context.Context, tr *tracer) (*layerReport, error) {
	ops := len(s.w.ops)
	lr := &layerReport{values: map[string]float64{}}

	// Tier 0: store.Get directly, over the same keys. Keys are built in
	// blocks outside the timed loops.
	const block = 1024
	var m0, m1 runtime.MemStats
	var getD time.Duration
	var getAllocs uint64
	keys := make([]arcs.HistoryKey, 0, block)
	for lo := 0; lo < ops; lo += block {
		keys = keys[:0]
		for _, key := range s.w.ops[lo:min(lo+block, ops)] {
			keys = append(keys, s.w.keys.key(key))
		}
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for _, k := range keys {
			if _, ok := s.node.st.Get(k); !ok {
				return nil, fmt.Errorf("store.Get lost preloaded key %v", k)
			}
		}
		getD += time.Since(start)
		runtime.ReadMemStats(&m1)
		getAllocs += m1.Mallocs - m0.Mallocs
	}
	lr.values["store.get_ns"] = perOp(float64(getD.Nanoseconds()), ops)
	lr.values["store.get_allocs"] = perOp(float64(getAllocs), ops)

	// Tier 1: the /v1/config handler in-process through ServeHTTP,
	// binary, over the same keys.
	var cfgD time.Duration
	var cfgAllocs uint64
	reqs := make([]*http.Request, 0, block)
	w := &discardWriter{h: http.Header{}}
	for lo := 0; lo < ops; lo += block {
		reqs = reqs[:0]
		for _, key := range s.w.ops[lo:min(lo+block, ops)] {
			req, err := http.NewRequest(http.MethodGet, configPath(s.w.keys.key(key)), nil)
			if err != nil {
				return nil, err
			}
			req.Header.Set("Accept", codec.ContentType)
			reqs = append(reqs, req)
		}
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for _, req := range reqs {
			w.reset()
			s.srv.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				return nil, fmt.Errorf("in-process /v1/config answered %d", w.code)
			}
		}
		cfgD += time.Since(start)
		runtime.ReadMemStats(&m1)
		cfgAllocs += m1.Mallocs - m0.Mallocs
	}
	lr.values["server.config_ns"] = perOp(float64(cfgD.Nanoseconds()), ops)
	lr.values["server.config_allocs"] = perOp(float64(cfgAllocs), ops)

	opUS, rtUS, hUS := tr.totalUS("op"), tr.totalUS("http.roundtrip"), tr.totalUS("server /v1/config")
	lr.values["http.self_us"] = perOp(rtUS-hUS, ops)
	lr.values["storeclient.self_us"] = perOp(opUS-rtUS, ops)
	lr.values["net.conns_per_kop"] = 1000 * perOp(float64(s.accepts), ops)
	lr.notes = append(lr.notes,
		fmt.Sprintf("store.get_ns = %d ns / %d direct Gets; store.get_allocs = %d mallocs / %d Gets", getD.Nanoseconds(), ops, getAllocs, ops),
		fmt.Sprintf("server.config_ns = %d ns / %d in-process ServeHTTP calls; allocs = %d / %d", cfgD.Nanoseconds(), ops, cfgAllocs, ops),
		fmt.Sprintf("net.conns_per_kop = 1000 * %d connections accepted during the ops / %d ops", s.accepts, ops),
	)
	lr.selfs = []selfTime{
		{layer: "storeclient", outer: "op", inner: "http.roundtrip", outerUS: opUS, innerUS: rtUS, ops: ops},
		{layer: "http", outer: "http.roundtrip", inner: "handler", outerUS: rtUS, innerUS: hUS, ops: ops},
		{layer: "server", outer: "handler(ServeHTTP)", inner: "store.Get",
			outerUS: float64(cfgD.Microseconds()), innerUS: float64(getD.Microseconds()), ops: ops},
	}
	return lr, nil
}

func (s *lookupSystem) close() error {
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
	return s.node.close()
}

// configPath is the /v1/config request storeclient.Lookup sends for an
// exact, no-search lookup.
func configPath(k arcs.HistoryKey) string {
	q := url.Values{}
	q.Set("app", k.App)
	q.Set("workload", k.Workload)
	q.Set("cap", strconv.FormatFloat(k.CapW, 'g', -1, 64))
	q.Set("region", k.Region)
	q.Set("fallback", "0")
	q.Set("search", "0")
	return "/v1/config?" + q.Encode()
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status code.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) reset() {
	clear(w.h)
	w.code = 0
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

func (w *discardWriter) WriteHeader(code int) { w.code = code }
