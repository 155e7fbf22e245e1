package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path"
	"time"

	arcs "arcs/internal/core"
	"arcs/internal/fleet"
	"arcs/internal/server"
	"arcs/internal/store"
	"arcs/internal/storeclient"
)

// ingest-fleet: a 3-node in-process fleet (replicas=2) takes seeded
// 32-report batches over a few thousand keys. Report perf drifts down
// over the run, so a steady share of reports is accepted. Keys are
// partitioned between the clients, which keeps per-key order, accepted
// saves and compactions identical from run to run.
const (
	fleetNodes       = 3
	fleetReplicas    = 2
	fleetPreload     = 5_000 // entries spread over the nodes' stores at start
	ingestKeys       = 3_000
	ingestBatch      = 32
	ingestPerSec     = 600 // ops per second of --seconds
	ingestWarmOps    = 100
	ingestWarmKeys   = 300
	ingestDrift      = 0.1 // report perf falls by this share over the op list
	ingestNoise      = 0.3 // relative spread of one report's perf
	ingestStoreImage = "image"
)

// fleetNames are the nodes' fixed names. Ring placement hashes the
// names, so fixed names (resolved to the loopback listeners by the
// benchmark's dialer) keep key ownership identical across runs.
var fleetNames = func() []string {
	out := make([]string, fleetNodes)
	for i := range out {
		out[i] = fmt.Sprintf("http://fleet-node-%d:8091", i)
	}
	return out
}()

// ingestReport is one report of an op. It names its key by index into
// the op list's key space, so the op list is pointer-free and adds no GC
// marking work to the fleet it measures.
type ingestReport struct {
	key  int
	cfg  arcs.ConfigValues
	perf float64
}

// ingestOps is an op list: op i is reports[i*ingestBatch:(i+1)*ingestBatch].
type ingestOps struct {
	keys    *keySpace
	reports []ingestReport
}

func (o *ingestOps) len() int { return len(o.reports) / ingestBatch }

func (o *ingestOps) op(i int) []ingestReport {
	return o.reports[i*ingestBatch : (i+1)*ingestBatch]
}

// fill writes op i into buf as the batch a client sends.
func (o *ingestOps) fill(buf []storeclient.Report, i int) []storeclient.Report {
	buf = buf[:0]
	for _, r := range o.op(i) {
		buf = append(buf, storeclient.Report{Key: o.keys.key(r.key), Cfg: r.cfg, Perf: r.perf})
	}
	return buf
}

type ingestFleet struct {
	cfg      *config
	fs       *memFS
	ops      *ingestOps
	queues   [][]int // per client, in order
	warm     *ingestOps
	best     map[int]ingestReport // best report per key index
	accepted int64                // reports that improve their key, in client order
	copies   int
}

func prepareIngestFleet(cfg *config) (instance, error) {
	w := &ingestFleet{cfg: cfg, fs: newMemFS(), best: map[int]ingestReport{}}
	ring, err := fleet.NewRing(fleetNames, 0)
	if err != nil {
		return nil, err
	}
	// Each node's store image holds the preload entries it owns.
	r, preload := newRNG(cfg.seed, "ingest-fleet/preload"), newKeySpace("pre")
	stores := make([]*store.Store, fleetNodes)
	for i := range stores {
		if stores[i], err = store.Open(nodeDir(i, ingestStoreImage), store.Options{FS: w.fs, SnapshotEvery: -1}); err != nil {
			return nil, err
		}
	}
	index := map[string]int{}
	for i, n := range fleetNames {
		index[n] = i
	}
	for i := 0; i < fleetPreload; i++ {
		k := preload.key(i)
		cfgv, perf := randomConfig(r), 1+99*r.Float64()
		for _, o := range ring.Owners(k.String(), fleetReplicas, nil) {
			stores[index[o]].Save(k, cfgv, perf)
		}
	}
	for _, st := range stores {
		if err := st.Snapshot(); err != nil {
			return nil, err
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
	}

	n := ingestPerSec * cfg.seconds
	w.ops = genReports(newRNG(cfg.seed, "ingest-fleet/ops"), "ing", ingestKeys, n)
	w.warm = genReports(newRNG(cfg.seed, "ingest-fleet/warm"), "warm", ingestWarmKeys, ingestWarmOps)
	w.queues = perClient(n)
	for _, q := range w.queues {
		for _, i := range q {
			for _, rep := range w.ops.op(i) {
				if b, ok := w.best[rep.key]; !ok || rep.perf < b.perf {
					w.best[rep.key] = rep
					w.accepted++
				}
			}
		}
	}
	return w, nil
}

// perClient assigns op i of n to client i%clients, in order.
func perClient(n int) [][]int {
	queues := make([][]int, clients)
	for i := 0; i < n; i++ {
		queues[i%clients] = append(queues[i%clients], i)
	}
	return queues
}

// genReports builds n batches. Op i belongs to client i%clients and
// draws its keys from that client's share of the key space, so no key is
// reported by two clients.
func genReports(r *rand.Rand, prefix string, keys, n int) *ingestOps {
	base := make([]float64, keys)
	for i := range base {
		base[i] = 1 + 9*r.Float64()
	}
	ops := &ingestOps{keys: newKeySpace(prefix), reports: make([]ingestReport, 0, n*ingestBatch)}
	for i := 0; i < n; i++ {
		c := i % clients
		drift := 1 - ingestDrift*float64(i)/float64(n)
		for j := 0; j < ingestBatch; j++ {
			k := c + clients*r.Intn(keys/clients)
			ops.reports = append(ops.reports, ingestReport{
				key:  k,
				cfg:  randomConfig(r),
				perf: base[k] * drift * (1 + ingestNoise*r.Float64()),
			})
		}
	}
	return ops
}

func nodeDir(i int, name string) string {
	return path.Join("ingest-fleet", fmt.Sprintf("node%d", i), name)
}

type fleetNode struct {
	*node
	fl  *fleet.Fleet
	dir string
}

type fleetSystem struct {
	w          *ingestFleet
	nodes      []*fleetNode
	clients    []*storeclient.Fleet
	check      *storeclient.Fleet
	transports []*http.Transport
	scrapeHC   *http.Client

	before, after     []map[string]float64
	fsBefore, fsAfter fsCounts
	accepts           int64 // connections accepted during the timed ops
}

// accepted sums the connections the nodes have accepted so far.
func (s *fleetSystem) accepted() int64 {
	var n int64
	for _, node := range s.nodes {
		n += node.accepts.Load()
	}
	return n
}

// stage gives every node a fresh copy of its store image.
func (w *ingestFleet) stage() {
	w.copies++
	for i := 0; i < fleetNodes; i++ {
		w.fs.copyDir(nodeDir(i, ingestStoreImage), nodeDir(i, fmt.Sprint(w.copies)))
	}
}

func (w *ingestFleet) setup(tr *tracer) (system, error) {
	copyIdx := fmt.Sprint(w.copies)
	s := &fleetSystem{w: w}
	lns := make([]net.Listener, fleetNodes)
	addrs := map[string]string{}
	for i := range lns {
		ln, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		addrs[fmt.Sprintf("fleet-node-%d:8091", i)] = ln.Addr().String()
	}
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		real, ok := addrs[addr]
		if !ok {
			return nil, fmt.Errorf("perfbench: unknown fleet node %q", addr)
		}
		var d net.Dialer
		return d.DialContext(ctx, network, real)
	}
	for i, name := range fleetNames {
		fnode, err := s.startFleetNode(i, name, nodeDir(i, copyIdx), lns[i], dial, tr)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, fnode)
	}
	for c := 0; c <= clients; c++ {
		ctr := tr
		if c == clients { // the untimed verify client
			ctr = nil
		}
		hc, t := newHTTPClient(ctr, "http.roundtrip", c, dial)
		s.transports = append(s.transports, t)
		fc, err := storeclient.NewFleet(fleetNames, fleetReplicas, storeclient.WithBinary(),
			storeclient.WithRetries(1), storeclient.WithJitterSeed(w.cfg.seed), storeclient.WithHTTPClient(hc))
		if err != nil {
			s.close()
			return nil, err
		}
		if c == clients {
			s.check = fc
		} else {
			s.clients = append(s.clients, fc)
		}
	}
	s.scrapeHC, _ = newHTTPClient(nil, "", 0, dial)
	for _, n := range fleetNames {
		if err := s.check.Client(n).Health(context.Background()); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// startFleetNode opens one node's store and serves it as a fleet member,
// with peer clients configured as arcsd configures them.
func (s *fleetSystem) startFleetNode(i int, name, dir string, ln net.Listener,
	dial func(context.Context, string, string) (net.Conn, error), tr *tracer) (*fleetNode, error) {
	st, err := store.Open(dir, store.Options{FS: s.w.fs})
	if err != nil {
		return nil, err
	}
	hc, t := newHTTPClient(tr, "http.peer_roundtrip", 20+i, dial)
	s.transports = append(s.transports, t)
	peers := map[string]*storeclient.Client{}
	for _, p := range fleetNames {
		if p != name {
			peers[p] = storeclient.New(p, storeclient.WithBinary(), storeclient.WithBreaker(5, 2*time.Second),
				storeclient.WithRetries(1), storeclient.WithHTTPClient(hc))
		}
	}
	fl, err := fleet.New(fleet.Config{
		Self: name, Nodes: fleetNames, Replicas: fleetReplicas, Store: st, Seed: s.w.cfg.seed,
		NewPeer: func(n string) fleet.Peer {
			if c := peers[n]; c != nil {
				return c
			}
			return nil
		},
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	srv := server.New(server.Config{Store: st, Fleet: fl, PeerClient: func(n string) *storeclient.Client { return peers[n] }})
	return &fleetNode{node: startNode(ln, st, srv, tr, 10+i), fl: fl, dir: dir}, nil
}

func (s *fleetSystem) loop(ctx context.Context, tr *tracer, ops *ingestOps, queues [][]int) loopResult {
	bufs := make([][]storeclient.Report, clients) // element c is used by client c only
	return closedLoop(ctx, tr, ops.len(), queues, func(ctx context.Context, c, i int) error {
		bufs[c] = ops.fill(bufs[c], i)
		return s.clients[c].ReportBatch(ctx, bufs[c])
	})
}

func (s *fleetSystem) warmup(ctx context.Context) error {
	return s.loop(ctx, nil, s.w.warm, perClient(s.w.warm.len())).firstErr
}

func (s *fleetSystem) scrapeAll(ctx context.Context) ([]map[string]float64, error) {
	var out []map[string]float64
	for _, n := range fleetNames {
		m, err := scrape(ctx, s.scrapeHC, n)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func (s *fleetSystem) run(ctx context.Context, tr *tracer) loopResult {
	before, err := s.scrapeAll(ctx)
	if err != nil {
		return loopResult{firstErr: err, failed: 1, lat: make([]time.Duration, 1)}
	}
	s.fsBefore = s.w.fs.counts()
	accepts := s.accepted()
	res := s.loop(ctx, tr, s.w.ops, s.w.queues)
	s.accepts = s.accepted() - accepts
	s.fsAfter = s.w.fs.counts()
	after, err := s.scrapeAll(ctx)
	if err != nil && res.firstErr == nil {
		res.firstErr = err
	}
	s.before, s.after = before, after
	return res
}

// verify settles the fleet with one maintenance round per node, then
// requires that the owners of every reported key agree on its record and
// that no acknowledged best was lost: a merged lookup returns exactly the
// best report sent for the key. Every accepted report must have been
// written to the WAL once by its primary and once by its replica.
func (s *fleetSystem) verify(ctx context.Context) error {
	d := s.fsAfter.sub(s.fsBefore)
	if d.walAppends != fleetReplicas*s.w.accepted {
		return fmt.Errorf("%d WAL appends for %d improving reports at %d replicas", d.walAppends, s.w.accepted, fleetReplicas)
	}
	for _, n := range s.nodes {
		n.fl.Tick(ctx)
	}
	byName := map[string]*storeclient.Client{}
	for _, n := range fleetNames {
		byName[n] = s.check.Client(n)
	}
	for ki, want := range s.w.best {
		k := s.w.ops.keys.key(ki)
		var first storeclient.Result
		for i, o := range s.check.Owners(k) {
			got, err := byName[o].Lookup(ctx, k, storeclient.LookupOpts{Forwarded: true})
			if err != nil {
				return fmt.Errorf("owner %s lookup %v: %w", o, k, err)
			}
			if i == 0 {
				first = got
			} else if got.Version != first.Version || got.Perf != first.Perf || got.Config != first.Config {
				return fmt.Errorf("replicas of %v disagree: %+v vs %+v", k, first, got)
			}
		}
		got, err := s.check.LookupMerged(ctx, k, storeclient.LookupOpts{})
		if err != nil {
			return fmt.Errorf("merged lookup %v: %w", k, err)
		}
		if got.Perf != want.perf || got.Config != want.cfg {
			return fmt.Errorf("acknowledged best of %v lost: fleet has perf %v %v, best sent %v %v", k, got.Perf, got.Config, want.perf, want.cfg)
		}
	}
	return nil
}

func (s *fleetSystem) counts() []count {
	d := s.fsAfter.sub(s.fsBefore)
	return []count{
		{"count.accepted_saves", d.walAppends},
		{"count.snapshots", d.snapshots},
	}
}

func (s *fleetSystem) layers(ctx context.Context, tr *tracer) (*layerReport, error) {
	ops := s.w.ops.len()
	lr := &layerReport{values: map[string]float64{}}
	v := lr.values
	opUS, rtUS := tr.totalUS("op"), tr.totalUS("http.roundtrip")
	repUS, peerUS, mergeUS := tr.totalUS("server /v1/reports"), tr.totalUS("http.peer_roundtrip"), tr.totalUS("server /v1/merge")
	v["storeclient.reportbatch_us"] = perOp(opUS, ops)
	reportsUS, reportsN := meanLatencyUS(s.before, s.after, "reports")
	mergeMeanUS, mergeN := meanLatencyUS(s.before, s.after, "merge")
	v["server.reports_us"] = reportsUS
	v["server.merge_us"] = mergeMeanUS
	v["fleet.merge_rpcs_per_op"] = perOp(mergeN, ops)
	v["fleet.forwards_per_op"] = perOp(metricDelta(s.before, s.after, "arcsd_fleet_report_forwards_total"), ops)
	v["fleet.replicated_per_op"] = perOp(metricDelta(s.before, s.after, "arcsd_fleet_replicated_total"), ops)
	d := s.fsAfter.sub(s.fsBefore)
	v["store.snapshots_per_kop"] = 1000 * perOp(float64(d.snapshots), ops)
	v["store.wal_bytes_per_op"] = perOp(float64(d.walBytes), ops)
	v["net.conns_per_kop"] = 1000 * perOp(float64(s.accepts), ops)

	saveUS, saved, reports, err := s.w.replaySaves()
	if err != nil {
		return nil, err
	}
	v["store.save_us"] = saveUS
	snapMS, err := snapshotMS(s.nodes[0].st)
	if err != nil {
		return nil, err
	}
	v["store.snapshot_ms"] = snapMS
	lr.notes = append(lr.notes,
		fmt.Sprintf("storeclient.reportbatch_us = %.0f us in Fleet.ReportBatch / %d ops", opUS, ops),
		fmt.Sprintf("server.reports_us, server.merge_us from /metrics sum/count: %.0f reports requests, %.0f merge requests", reportsN, mergeN),
		fmt.Sprintf("store.save_us = replay of %d reports into a fresh store (%d accepted), per Save", reports, saved),
		fmt.Sprintf("store.snapshot_ms = median of 5 direct Snapshot calls at %d entries", s.nodes[0].st.Len()),
		fmt.Sprintf("store.* per op: %d snapshots, %d WAL bytes, %d WAL appends, %d fsyncs / %d ops", d.snapshots, d.walBytes, d.walAppends, d.syncs, ops),
		fmt.Sprintf("net.conns_per_kop = 1000 * %d connections accepted by %d nodes during the ops / %d ops", s.accepts, fleetNodes, ops),
	)
	lr.selfs = []selfTime{
		{layer: "storeclient", outer: "op", inner: "http.roundtrip", outerUS: opUS, innerUS: rtUS, ops: ops},
		{layer: "http (client hop)", outer: "http.roundtrip", inner: "handler /v1/reports", outerUS: rtUS, innerUS: repUS, ops: ops},
		{layer: "server+fleet+store", outer: "handler /v1/reports", inner: "http.peer_roundtrip", outerUS: repUS, innerUS: peerUS, ops: ops},
		{layer: "http (peer hop)", outer: "http.peer_roundtrip", inner: "handler /v1/merge", outerUS: peerUS, innerUS: mergeUS, ops: ops},
	}
	return lr, nil
}

// replaySaves saves every timed report, in client order, into a fresh
// store with compaction off, and returns the mean time per Save.
func (w *ingestFleet) replaySaves() (float64, int64, int, error) {
	fs := newMemFS()
	st, err := store.Open("replay", store.Options{FS: fs, SnapshotEvery: -1})
	if err != nil {
		return 0, 0, 0, err
	}
	n := 0
	start := time.Now()
	for _, q := range w.queues {
		for _, i := range q {
			for _, rep := range w.ops.op(i) {
				st.Save(w.ops.keys.key(rep.key), rep.cfg, rep.perf)
				n++
			}
		}
	}
	d := time.Since(start)
	if err := st.Close(); err != nil {
		return 0, 0, 0, err
	}
	saved := fs.counts().walAppends
	if saved != w.accepted {
		return 0, 0, 0, fmt.Errorf("direct replay accepted %d saves, want %d", saved, w.accepted)
	}
	return float64(d.Microseconds()) / float64(n), saved, n, nil
}

// snapshotMS is the median time of a direct Snapshot of st.
func snapshotMS(st *store.Store) (float64, error) {
	var ms []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := st.Snapshot(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start).Microseconds())/1000)
	}
	return median(ms), nil
}

func (s *fleetSystem) close() error {
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
	var first error
	for _, n := range s.nodes {
		if err := n.close(); err != nil && first == nil {
			first = err
		}
		s.w.fs.removeDir(n.dir)
	}
	return first
}
