// Command perfbench is the repository's end-to-end benchmark. It runs
// the ARCS service path (client, HTTP, handler, store or fleet, search)
// and the paper path (probe, Harmony session, BatchSearch, the arcsbench
// experiment registry) in-process on loopback listeners, over a fixed,
// seeded op list per workload, and checks every answer.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload lookup-hot --seed 1 --seconds 12 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same op
// list untraced and then traced, and prints the per-layer metrics, the
// tier differences and the tracing overhead. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. See NOTES.md for the workloads, the metrics and which
// end-to-end metric each layer metric should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the number of closed-loop client goroutines; ARCS callers
// block on a lookup at region entry and on a report after a search, so
// each client sends its next op only when the previous one returned.
const clients = 2

// config is the parsed command line plus the run's environment.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository checkout
	buildDir string // working directory inside the checkout
	nproc    int
}

// workload is one traffic mix. prepare generates every input from the
// seed before any timing starts.
type workload struct {
	name    string
	setups  int // set-ups per pass; setup_s is their median
	prepare func(cfg *config) (instance, error)
}

// instance is a workload with its inputs generated.
type instance interface {
	// stage restores fresh data directories for the next set-up, as an
	// operator restores a backup; it is not part of set-up time.
	stage()
	// setup builds a system that is ready for its first op; a non-nil
	// tracer installs the tracing wrappers at the public seams.
	setup(tr *tracer) (system, error)
}

// system is one running copy of the program under test.
type system interface {
	warmup(ctx context.Context) error
	// run executes the fixed op list with the closed-loop clients.
	run(ctx context.Context, tr *tracer) loopResult
	// verify checks the state the op list left behind (untimed).
	verify(ctx context.Context) error
	// counts are the numbers that must repeat exactly for a seed.
	counts() []count
	// layers measures the per-layer metrics after a traced run.
	layers(ctx context.Context, tr *tracer) (*layerReport, error)
	close() error
}

// count is one deterministic count of a pass.
type count struct {
	name  string
	value int64
}

var workloads = []workload{
	{name: "lookup-hot", setups: 7, prepare: prepareLookupHot},
	{name: "ingest-fleet", setups: 9, prepare: prepareIngestFleet},
	{name: "search-cold", setups: 9, prepare: prepareSearchCold},
	{name: "paper-suite", setups: 101, prepare: preparePaperSuite},
}

// layerMetric is one per-layer metric and the workload that measures it.
// A traced run reports every one; those its workload does not exercise
// read 0.
type layerMetric struct {
	name, unit, workload string
}

var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"store.get_ns", "ns", "lookup-hot"},
		{"store.get_allocs", "count", "lookup-hot"},
		{"server.config_ns", "ns", "lookup-hot"},
		{"server.config_allocs", "count", "lookup-hot"},
		{"http.self_us", "us", "lookup-hot"},
		{"storeclient.self_us", "us", "lookup-hot"},
		{"net.conns_per_kop", "1/kop", "lookup-hot,ingest-fleet"},
		{"storeclient.reportbatch_us", "us", "ingest-fleet"},
		{"server.reports_us", "us", "ingest-fleet"},
		{"server.merge_us", "us", "ingest-fleet"},
		{"fleet.merge_rpcs_per_op", "count", "ingest-fleet"},
		{"fleet.forwards_per_op", "count", "ingest-fleet"},
		{"fleet.replicated_per_op", "count", "ingest-fleet"},
		{"store.save_us", "us", "ingest-fleet"},
		{"store.snapshot_ms", "ms", "ingest-fleet"},
		{"store.snapshots_per_kop", "1/kop", "ingest-fleet"},
		{"store.wal_bytes_per_op", "B", "ingest-fleet"},
		{"search.ms", "ms", "search-cold"},
		{"search.share", "ratio", "search-cold"},
		{"evalcache.misses_per_op", "count", "search-cold"},
		{"evalcache.hit_ratio", "ratio", "search-cold"},
		{"evalcache.dedup_per_op", "count", "search-cold"},
		{"core.evals_per_search", "count", "search-cold"},
		{"core.probes_per_search", "count", "search-cold"},
		{"search.us_per_probe", "us", "search-cold"},
		{"server.search_shed", "count", "search-cold"},
		{"server.search_dedup", "count", "search-cold"},
		{"sim.probe_static_ns", "ns", "search-cold,paper-suite"},
		{"sim.probe_dynamic_ns", "ns", "search-cold,paper-suite"},
		{"run.alloc_kb_per_op", "KiB", "all"},
		{"run.trace_overhead_pct", "%", "all"},
		{"count.probes", "count", "search-cold"},
		{"count.evals", "count", "search-cold"},
		{"count.evalcache_misses", "count", "search-cold"},
		{"count.accepted_saves", "count", "ingest-fleet"},
		{"count.snapshots", "count", "ingest-fleet"},
	}
	for _, id := range paperExperimentIDs() {
		ms = append(ms, layerMetric{"paper." + id + "_s", "s", "paper-suite"})
	}
	return ms
}()

func (m layerMetric) measuredBy(workload string) bool {
	if m.workload == "all" {
		return true
	}
	for _, w := range strings.Split(m.workload, ",") {
		if w == workload {
			return true
		}
	}
	return false
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same op list")
	fs.IntVar(&cfg.seconds, "seconds", 10, "sizes the fixed op list to about this many seconds of work")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout holding results_arcsbench.txt")
	fs.StringVar(&cfg.buildDir, "build-dir", ".bench_build", "working directory for traces and count ledgers")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if findWorkload(cfg.workload) == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return nil, fmt.Errorf("unknown --workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = *traceFlag == 1
	cfg.nproc = runtime.NumCPU()
	if cfg.nproc > clients {
		cfg.nproc = clients
	}
	return cfg, nil
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// pass is one measured execution of the op list on a fresh system.
type pass struct {
	setupS   []float64
	loop     loopResult
	alloc    uint64 // bytes allocated during the timed phase
	liveHeap uint64 // HeapAlloc after a forced GC at the end of the run
	counts   []count
	verify   error
	layers   *layerReport
}

// layerReport is what a traced pass measured per layer.
type layerReport struct {
	values map[string]float64
	notes  []string   // how each value was derived, with its base
	selfs  []selfTime // differences between adjacent tiers
}

func run(ctx context.Context, cfg *config, out io.Writer) (*result, error) {
	w := findWorkload(cfg.workload)
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d %s/%s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, cfg.nproc, runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
	inst, err := w.prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", w.name, err)
	}
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(out, "ERROR: "+format+"\n", args...)
	}

	setups := w.setups
	if cfg.trace {
		setups = 1
	}
	base, err := measure(ctx, inst, nil, setups)
	if err != nil {
		return nil, err
	}
	if base.loop.wall <= 0 {
		return nil, fmt.Errorf("no op ran: %v", base.loop.firstErr)
	}
	passes := []*pass{base}
	if cfg.trace {
		tr := newTracer()
		traced, err := measure(ctx, inst, tr, 1)
		if err != nil {
			return nil, err
		}
		passes = append(passes, traced)
		if err := writeTrace(cfg, tr); err != nil {
			fail("write trace: %v", err)
		}
	}
	for i, p := range passes {
		res.Attempted += len(p.loop.lat)
		res.Failed += p.loop.failed
		if p.loop.firstErr != nil {
			fail("pass %d: %d of %d ops failed; first: %v", i, p.loop.failed, len(p.loop.lat), p.loop.firstErr)
		}
		if p.verify != nil {
			fail("pass %d: verify: %v", i, p.verify)
		}
	}

	fmt.Fprintln(out, "deterministic counts (must repeat exactly for this seed):")
	for _, c := range base.counts {
		fmt.Fprintf(out, "  %-28s %d\n", c.name, c.value)
	}
	if cfg.trace && !slices.Equal(base.counts, passes[1].counts) {
		fail("counts drifted between the untraced and the traced pass: %v vs %v", base.counts, passes[1].counts)
	}
	if drift, err := checkLedger(cfg, base.counts); err != nil {
		fmt.Fprintf(out, "count ledger unavailable: %v\n", err)
	} else if drift != "" {
		fail("counts drifted from an earlier run with the same seed: %s", drift)
	}

	if !cfg.trace {
		fmt.Fprintln(out, "end-to-end metrics:")
		for _, m := range endToEnd(base) {
			fmt.Fprintf(out, "  %-14s %14.4f %-4s (%s)\n", m.name, m.value, m.unit, m.base)
			res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
		}
		return res, nil
	}

	traced := passes[1]
	fmt.Fprintln(out, "per-layer metrics (traced run):")
	for _, n := range traced.layers.notes {
		fmt.Fprintln(out, "  "+n)
	}
	fmt.Fprintln(out, "self time per layer (difference between adjacent tiers):")
	for _, st := range traced.layers.selfs {
		fmt.Fprintln(out, "  "+st.String())
		if st.outerUS < st.innerUS {
			fail("negative self time for %s: %s is below %s", st.layer, st.outer, st.inner)
		}
	}
	layers := traced.layers.values
	layers["run.alloc_kb_per_op"] = perOp(float64(base.alloc)/1024, len(base.loop.lat))
	overhead := 100 * (traced.loop.wall.Seconds() - base.loop.wall.Seconds()) / base.loop.wall.Seconds()
	layers["run.trace_overhead_pct"] = overhead
	fmt.Fprintf(out, "  tracing overhead %.2f%% = (traced %.3f s - untraced %.3f s) / untraced, same %d ops\n",
		overhead, traced.loop.wall.Seconds(), base.loop.wall.Seconds(), len(base.loop.lat))
	fmt.Fprintf(out, "  run.alloc_kb_per_op %.3f = %d bytes allocated / %d ops of the untraced pass\n",
		layers["run.alloc_kb_per_op"], base.alloc, len(base.loop.lat))
	for _, c := range traced.counts {
		if isLayerMetric(c.name) {
			layers[c.name] = float64(c.value)
		}
	}
	for _, m := range layerMetrics {
		v, ok := layers[m.name]
		switch {
		case m.measuredBy(w.name) && !ok:
			fail("traced run did not measure %s", m.name)
		case !m.measuredBy(w.name) && ok:
			fail("%s measured by %s but catalogued for %s", m.name, w.name, m.workload)
		case m.measuredBy(w.name):
			fmt.Fprintf(out, "  %-28s %14.4f %s\n", m.name, v, m.unit)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

func isLayerMetric(name string) bool {
	for _, m := range layerMetrics {
		if m.name == name {
			return true
		}
	}
	return false
}

// measure runs one pass: set up (timed, several times), warm up outside
// timing, force a GC, run the op list, read the live heap after another
// forced GC, then verify and, when traced, measure the layers.
func measure(ctx context.Context, inst instance, tr *tracer, setups int) (*pass, error) {
	p := &pass{}
	var sys system
	defer func() {
		if sys != nil {
			sys.close() // error path only; the success path checks Close below
		}
	}()
	for i := 0; i < setups; i++ {
		if sys != nil {
			err := sys.close()
			sys = nil
			if err != nil {
				return nil, fmt.Errorf("tear down: %w", err)
			}
		}
		inst.stage()
		time.Sleep(setupGap)
		runtime.GC()
		start := time.Now()
		s, err := inst.setup(tr)
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		sys = s
		p.setupS = append(p.setupS, d.Seconds())
	}
	if err := sys.warmup(ctx); err != nil {
		return nil, fmt.Errorf("warm up: %w", err)
	}
	tr.reset()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.loop = sys.run(ctx, tr)
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.liveHeap = after.HeapAlloc
	p.verify = sys.verify(ctx)
	p.counts = sys.counts()
	if tr != nil {
		lr, err := sys.layers(ctx, tr)
		if err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		p.layers = lr
	}
	err := sys.close()
	sys = nil
	if err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}
	return p, nil
}

// setupGap separates consecutive set-ups, so that their median spans
// more than one moment of outside load.
const setupGap = 10 * time.Millisecond

// loopResult is what the closed-loop clients observed.
type loopResult struct {
	lat      []time.Duration // per op, indexed by op
	wall     time.Duration
	failed   int
	firstErr error
}

// opFunc executes op i on behalf of client c.
type opFunc func(ctx context.Context, c, i int) error

// closedLoop runs the op list with one goroutine per client. Each client
// takes its next op from queues[c % len(queues)] only after its previous
// op returned: one shared queue spreads ops over whichever client is
// free, one queue per client keeps each client's ops in order. With a
// tracer every op is recorded as an "op" span.
func closedLoop(ctx context.Context, tr *tracer, n int, queues [][]int, do opFunc) loopResult {
	res := loopResult{lat: make([]time.Duration, n)}
	cursors := make([]atomic.Int64, len(queues))
	var failed atomic.Int64
	var errOnce sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			q := c % len(queues)
			for {
				k := int(cursors[q].Add(1)) - 1
				if k >= len(queues[q]) {
					return
				}
				i := queues[q][k]
				octx := ctx
				if tr != nil {
					octx = withOp(ctx, int64(i))
				}
				t0 := time.Now()
				err := do(octx, c, i)
				d := time.Since(t0)
				res.lat[i] = d
				tr.record("op", int64(i), c, t0, d)
				if err != nil {
					failed.Add(1)
					errOnce.Do(func() { res.firstErr = fmt.Errorf("op %d: %w", i, err) })
				}
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.failed = int(failed.Load())
	return res
}

// endToEnd computes the end-to-end metrics of a pass over every op of
// the run.
func endToEnd(p *pass) []e2eMetric {
	lat := durationsUS(p.loop.lat)
	n := len(lat)
	setup := median(p.setupS) // sorts p.setupS
	return []e2eMetric{
		{"setup_s", "s", setup, fmt.Sprintf("median of %d set-ups, %.4g to %.4g s", len(p.setupS), p.setupS[0], p.setupS[len(p.setupS)-1])},
		{"ops_per_s", "1/s", float64(n) / p.loop.wall.Seconds(), fmt.Sprintf("%d ops / %.3f s", n, p.loop.wall.Seconds())},
		{"op_p50_us", "us", percentile(lat, 50), fmt.Sprintf("%d samples", n)},
		{"op_p99_us", "us", percentile(lat, 99), fmt.Sprintf("%d samples, %d beyond", n, n-int(math.Ceil(0.99*float64(n))))},
		{"live_heap_mb", "MB", float64(p.liveHeap) / 1e6, "HeapAlloc after a forced GC at the end of the run"},
	}
}

// e2eMetric is one end-to-end metric with the base it was computed from.
type e2eMetric struct {
	name, unit string
	value      float64
	base       string
}

// sequence returns the op indices [0, n).
func sequence(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// checkLedger compares this run's counts with the first run recorded for
// the same workload, seed, op-list size and benchmark binary, recording
// them if none was. It returns a description of any drift.
func checkLedger(cfg *config, counts []count) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(cfg.buildDir, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-sec%d-%s.json",
		cfg.workload, cfg.seed, cfg.seconds, hex.EncodeToString(sum[:8])))
	cur := make(map[string]int64, len(counts))
	for _, c := range counts {
		cur[c.name] = c.value
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		data, err := json.Marshal(cur)
		if err != nil {
			return "", err
		}
		return "", os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return "", err
	}
	var prev map[string]int64
	if err := json.Unmarshal(data, &prev); err != nil {
		return "", fmt.Errorf("read %s: %w", path, err)
	}
	var diffs []string
	for name, v := range cur {
		if pv, ok := prev[name]; !ok || pv != v {
			diffs = append(diffs, fmt.Sprintf("%s %d (was %d)", name, v, pv))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, ", "), nil
}

func writeTrace(cfg *config, tr *tracer) error {
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.buildDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
