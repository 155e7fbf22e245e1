package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"arcs/internal/cli"
	arcs "arcs/internal/core"
	"arcs/internal/evalcache"
	"arcs/internal/server"
	"arcs/internal/store"
	"arcs/internal/storeclient"
)

// search-cold: two clients look up never-seen SP/BT (class B/C) and
// LULESH (45/60) contexts on crill at seeded caps in [50, 115] W with
// fallback off, so every lookup runs one server-side Nelder-Mead search
// with a 40-evaluation budget per region.
const (
	searchArch      = "crill"
	searchBudget    = 40
	searchPerSec    = 270 // ops per second of --seconds
	searchWarmOps   = 24
	searchCheckOps  = 24 // timed ops re-searched through arcs.BatchSearch
	searchCapMinW   = 50
	searchCapStepsW = 6500 // caps 50.00 .. 115.00 W in 0.01 W steps
	searchPreload   = 5_000
	searchImage     = "search-cold/image"
)

type searchCtx struct {
	key     arcs.HistoryKey
	regions []arcs.RegionModel
}

type searchCold struct {
	cfg   *config
	ops   []searchCtx
	warm  []searchCtx
	check []int // op indices re-searched in verify
	dirs  int
	fs    *memFS
}

func prepareSearchCold(cfg *config) (instance, error) {
	r := newRNG(cfg.seed, "search-cold/contexts")
	// Every app context gets the same number of ops, so the op mix, and
	// with it the work per run, does not vary with the seed; the caps,
	// the regions asked for and the order do.
	perCtx := (searchPerSec*cfg.seconds + searchWarmOps) / len(appContexts)
	var ctxs []searchCtx
	for _, c := range appContexts {
		app, err := cli.BuildApp(c.app, c.workload)
		if err != nil {
			return nil, err
		}
		var rms []arcs.RegionModel
		for _, spec := range app.Regions {
			rms = append(rms, arcs.RegionModel{Name: spec.Name, Model: spec.Model})
		}
		caps := sampleDistinct(r, searchCapStepsW+1, perCtx)
		if len(caps) < perCtx {
			return nil, fmt.Errorf("search-cold: %d ops per app need more than %d caps", perCtx, searchCapStepsW+1)
		}
		for _, capIdx := range caps {
			ctxs = append(ctxs, searchCtx{
				key: arcs.HistoryKey{
					App: c.app, Workload: c.workload,
					CapW:   searchCapMinW + float64(capIdx)/100,
					Region: rms[r.Intn(len(rms))].Name,
				},
				regions: rms,
			})
		}
	}
	r.Shuffle(len(ctxs), func(i, j int) { ctxs[i], ctxs[j] = ctxs[j], ctxs[i] })
	n := len(ctxs) - searchWarmOps
	w := &searchCold{cfg: cfg, warm: ctxs[:searchWarmOps], ops: ctxs[searchWarmOps:], fs: newMemFS()}
	// The daemon restarts with earlier results in its store. Their region
	// names are synthetic, so none of them answers a cold lookup.
	st, err := store.Open(searchImage, store.Options{FS: w.fs, SnapshotEvery: -1})
	if err != nil {
		return nil, err
	}
	pr, keys := newRNG(cfg.seed, "search-cold/preload"), newKeySpace("r")
	for i := 0; i < searchPreload; i++ {
		st.Save(keys.key(i), randomConfig(pr), 1+99*pr.Float64())
	}
	if err := st.Snapshot(); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	w.check = sampleDistinct(newRNG(cfg.seed, "search-cold/check"), n, searchCheckOps)
	return w, nil
}

type searchSystem struct {
	w          *searchCold
	node       *node
	dir        string
	evc        *evalcache.Cache // set when traced: the searcher is built here to be wrapped
	clients    []*storeclient.Client
	transports []*http.Transport
	answers    []storeclient.Result
	before     map[string]float64
	after      map[string]float64
	scrapeHC   *http.Client

	evcBefore, evcAfter       evalcache.Stats
	replayEvals, replayProbes int64
}

// stage copies the preloaded store image into a fresh directory.
func (w *searchCold) stage() {
	w.dirs++
	w.fs.copyDir(searchImage, fmt.Sprintf("search-cold/store%d", w.dirs))
}

// setup starts an arcsd on the staged store with the default simulator
// searcher. Traced, the searcher is the same SimSearcher the server
// would build, constructed here so that the server.Searcher seam can be
// timed and its eval cache read directly.
func (w *searchCold) setup(tr *tracer) (system, error) {
	dir := fmt.Sprintf("search-cold/store%d", w.dirs)
	// Compaction is off (arcsd -snapshot-every -1): ingest-fleet measures
	// it, and here its stalls would decide the tail instead of search.
	st, err := store.Open(dir, store.Options{FS: w.fs, SnapshotEvery: -1})
	if err != nil {
		return nil, err
	}
	scfg := server.Config{Store: st, SearchBudget: searchBudget, SearchParallelism: w.cfg.nproc}
	var evc *evalcache.Cache
	if tr != nil {
		evc = evalcache.New()
		scfg.Searcher = tracingSearcher{tr: tr, next: server.SimSearcher{
			Parallelism: w.cfg.nproc, Cache: evc, Neighbors: st.LoadNeighbors,
		}}
	}
	ln, err := listen()
	if err != nil {
		st.Close()
		return nil, err
	}
	n := startNode(ln, st, server.New(scfg), tr, 10)
	s := &searchSystem{w: w, node: n, dir: dir, evc: evc, answers: make([]storeclient.Result, len(w.ops))}
	for c := 0; c < clients; c++ {
		hc, t := newHTTPClient(tr, "http.roundtrip", c, nil)
		s.clients = append(s.clients, storeclient.New("http://"+n.addr, storeclient.WithBinary(), storeclient.WithHTTPClient(hc)))
		s.transports = append(s.transports, t)
	}
	s.scrapeHC, _ = newHTTPClient(nil, "", 0, nil)
	if err := s.clients[0].Health(context.Background()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *searchSystem) lookup(ctx context.Context, c int, sc searchCtx) (storeclient.Result, error) {
	got, err := s.clients[c].Lookup(ctx, sc.key, storeclient.LookupOpts{Arch: searchArch, Search: true})
	if err != nil {
		return got, err
	}
	if got.Source != "searched" || got.Key != sc.key {
		return got, fmt.Errorf("cold lookup %v answered %q for %v, want a fresh search", sc.key, got.Source, got.Key)
	}
	return got, nil
}

func (s *searchSystem) warmup(ctx context.Context) error {
	res := closedLoop(ctx, nil, len(s.w.warm), [][]int{sequence(len(s.w.warm))}, func(ctx context.Context, c, i int) error {
		_, err := s.lookup(ctx, c, s.w.warm[i])
		return err
	})
	return res.firstErr
}

func (s *searchSystem) run(ctx context.Context, tr *tracer) loopResult {
	base := "http://" + s.node.addr
	before, err := scrape(ctx, s.scrapeHC, base)
	if err != nil {
		return loopResult{firstErr: err, failed: 1, lat: make([]time.Duration, 1)}
	}
	if s.evc != nil {
		s.evcBefore = s.evc.Stats()
	}
	res := closedLoop(ctx, tr, len(s.w.ops), [][]int{sequence(len(s.w.ops))}, func(ctx context.Context, c, i int) error {
		got, err := s.lookup(ctx, c, s.w.ops[i])
		s.answers[i] = got
		return err
	})
	if s.evc != nil {
		s.evcAfter = s.evc.Stats()
	}
	after, err := scrape(ctx, s.scrapeHC, base)
	if err != nil && res.firstErr == nil {
		res.firstErr = err
	}
	s.before, s.after = before, after
	return res
}

func (s *searchSystem) delta(series string) float64 {
	return metricDelta([]map[string]float64{s.before}, []map[string]float64{s.after}, series)
}

// verify re-searches a seeded sample of the timed contexts directly
// through arcs.BatchSearch with a fresh eval cache, outside timing: the
// winner and its perf must be identical to what the service answered.
// Every op must have run exactly one search, none shed or failed.
func (s *searchSystem) verify(ctx context.Context) error {
	if got, want := s.delta("arcsd_searches_total"), float64(len(s.w.ops)); got != want {
		return fmt.Errorf("%v server-side searches for %v cold lookups", got, want)
	}
	for _, series := range []string{"arcsd_search_shed_total", "arcsd_search_errors_total", "arcsd_search_dedup_total"} {
		if d := s.delta(series); d != 0 {
			return fmt.Errorf("%s rose by %v", series, d)
		}
	}
	for _, i := range s.w.check {
		res, err := s.w.replay(ctx, s.w.ops[i])
		if err != nil {
			return err
		}
		for _, r := range res {
			s.replayEvals += int64(r.Evals)
			s.replayProbes += int64(r.Probes)
		}
		r := regionResult(res, s.w.ops[i].key.Region)
		if r == nil {
			return fmt.Errorf("replay of %v has no region %q", s.w.ops[i].key, s.w.ops[i].key.Region)
		}
		if got := s.answers[i]; got.Config != r.Cfg || got.Perf != r.Perf {
			return fmt.Errorf("service answered %v perf %v for %v; direct BatchSearch finds %v perf %v",
				got.Config, got.Perf, s.w.ops[i].key, r.Cfg, r.Perf)
		}
	}
	return nil
}

// replay runs the search the server runs for one context, directly.
func (w *searchCold) replay(ctx context.Context, sc searchCtx) ([]arcs.BatchSearchResult, error) {
	arch, err := cli.BuildArch(searchArch)
	if err != nil {
		return nil, err
	}
	return arcs.BatchSearch(ctx, arch, sc.regions, arcs.BatchSearchOptions{
		Algo: arcs.AlgoNelderMead, MaxEvals: searchBudget, CapW: sc.key.CapW,
		Parallelism: w.cfg.nproc, Cache: evalcache.New(), App: sc.key.App, Workload: sc.key.Workload,
	})
}

func regionResult(rs []arcs.BatchSearchResult, region string) *arcs.BatchSearchResult {
	for i := range rs {
		if rs[i].Region == region {
			return &rs[i]
		}
	}
	return nil
}

func (s *searchSystem) counts() []count {
	return []count{
		{"count.searches", int64(s.delta("arcsd_searches_total"))},
		{"count.evalcache_misses", int64(s.cacheDelta().Misses)},
		{"count.evals", s.replayEvals},
		{"count.probes", s.replayProbes},
	}
}

// cacheDelta is the eval-cache activity of the timed ops: from /metrics
// untraced, from the wrapped searcher's own cache when traced.
func (s *searchSystem) cacheDelta() evalcache.Stats {
	if s.evc == nil {
		return evalcache.Stats{
			Hits:   uint64(s.delta("arcsd_evalcache_hits_total")),
			Misses: uint64(s.delta("arcsd_evalcache_misses_total")),
			Dedups: uint64(s.delta("arcsd_evalcache_dedup_total")),
		}
	}
	return evalcache.Stats{
		Hits:   s.evcAfter.Hits - s.evcBefore.Hits,
		Misses: s.evcAfter.Misses - s.evcBefore.Misses,
		Dedups: s.evcAfter.Dedups - s.evcBefore.Dedups,
	}
}

func (s *searchSystem) layers(ctx context.Context, tr *tracer) (*layerReport, error) {
	ops := len(s.w.ops)
	lr := &layerReport{values: map[string]float64{}}
	searchD, searches := tr.total("search")
	searchUS := float64(searchD) / float64(time.Microsecond)
	opUS, rtUS, hUS := tr.totalUS("op"), tr.totalUS("http.roundtrip"), tr.totalUS("server /v1/config")
	cd := s.cacheDelta()
	lookups := cd.Hits + cd.Misses + cd.Dedups
	checked := len(s.w.check)
	v := lr.values
	v["search.ms"] = perOp(searchUS/1000, int(searches))
	v["search.share"] = searchUS / opUS
	v["evalcache.misses_per_op"] = perOp(float64(cd.Misses), ops)
	v["evalcache.hit_ratio"] = float64(cd.Hits) / float64(lookups)
	v["evalcache.dedup_per_op"] = perOp(float64(cd.Dedups), ops)
	v["core.evals_per_search"] = perOp(float64(s.replayEvals), checked)
	v["core.probes_per_search"] = perOp(float64(s.replayProbes), checked)
	v["search.us_per_probe"] = searchUS / float64(cd.Misses)
	v["server.search_shed"] = s.delta("arcsd_search_shed_total")
	v["server.search_dedup"] = s.delta("arcsd_search_dedup_total")
	lr.notes = append(lr.notes,
		fmt.Sprintf("search.ms = %.0f us in Searcher.Search / %d searches", searchUS, searches),
		fmt.Sprintf("search.share = %.0f us searching / %.0f us of ops", searchUS, opUS),
		fmt.Sprintf("evalcache: %d hits, %d misses, %d dedups over %d probe requests and %d ops", cd.Hits, cd.Misses, cd.Dedups, lookups, ops),
		fmt.Sprintf("core.*_per_search = %d evals, %d probes / %d contexts replayed through arcs.BatchSearch", s.replayEvals, s.replayProbes, checked),
		fmt.Sprintf("search.us_per_probe = %.0f us searching / %d fresh probes (eval-cache misses)", searchUS, cd.Misses),
	)
	lr.selfs = []selfTime{
		{layer: "storeclient", outer: "op", inner: "http.roundtrip", outerUS: opUS, innerUS: rtUS, ops: ops},
		{layer: "http", outer: "http.roundtrip", inner: "handler", outerUS: rtUS, innerUS: hUS, ops: ops},
		{layer: "server", outer: "handler", inner: "search", outerUS: hUS, innerUS: searchUS, ops: ops},
	}
	if err := probeTiers(lr); err != nil {
		return nil, err
	}
	return lr, nil
}

func (s *searchSystem) close() error {
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
	err := s.node.close()
	s.w.fs.removeDir(s.dir)
	return err
}
