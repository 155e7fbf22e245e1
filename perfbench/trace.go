package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"arcs/internal/server"
)

// maxKeptSpans bounds the spans kept for the trace file; aggregates
// cover every span regardless.
const maxKeptSpans = 20000

// opHeader carries the op identifier from the benchmark's transports to
// its handler wrappers, so every span of one op shares that identifier.
const opHeader = "X-Perfbench-Op"

type opKey struct{}

// withOp tags ctx with the op identifier its spans share.
func withOp(ctx context.Context, op int64) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

func opOf(ctx context.Context) int64 {
	if v, ok := ctx.Value(opKey{}).(int64); ok {
		return v
	}
	return -1
}

// span is one timed call across a layer boundary, as microseconds since
// the tracer's epoch.
type span struct {
	name       string
	op         int64
	tid        int
	start, dur float64
}

// agg is the running total of one span name.
type agg struct {
	total time.Duration
	count int64
}

// tracer keeps spans in memory and sums their durations per name; the
// spans are written as Chrome trace-event JSON when the run ends.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span          // guarded by mu
	aggs  map[string]*agg // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), aggs: make(map[string]*agg)} }

// record adds one span. A nil tracer records nothing, so untraced code
// paths call it unconditionally.
func (t *tracer) record(name string, op int64, tid int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[name]
	if a == nil {
		a = &agg{}
		t.aggs[name] = a
	}
	a.total += d
	a.count++
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, span{
			name: name, op: op, tid: tid,
			start: float64(start.Sub(t.epoch)) / float64(time.Microsecond),
			dur:   float64(d) / float64(time.Microsecond),
		})
	}
}

// reset drops every span and total recorded so far, so that set-up and
// warm-up traffic stays out of the timed run's numbers.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	clear(t.aggs)
}

// total returns the summed duration and count of one span name.
func (t *tracer) total(name string) (time.Duration, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[name]; a != nil {
		return a.total, a.count
	}
	return 0, 0
}

// totalUS returns the summed duration of one span name in microseconds.
func (t *tracer) totalUS(name string) float64 {
	d, _ := t.total(name)
	return float64(d) / float64(time.Microsecond)
}

// writeChrome writes the kept spans in the Chrome trace-event format
// (complete events, microsecond timestamps) that internal/trace's
// timeline also writes.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.name, Ph: "X", Ts: s.start, Dur: s.dur, PID: 1, TID: s.tid,
			Args: map[string]any{"op": s.op}}
	}
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
		DisplayUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}

// tracingTransport is an http.RoundTripper that times each round trip
// under name and stamps the op identifier onto the request for the
// server-side handler wrapper.
type tracingTransport struct {
	next http.RoundTripper
	tr   *tracer
	name string
	tid  int
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := opOf(req.Context())
	if op >= 0 {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.tr.record(t.name, op, t.tid, start, time.Since(start))
	return resp, err
}

// tracingHandler times every request a server handles, per path, and
// carries the op identifier into the request context so the server's
// own outgoing peer calls are attributed to the same op.
type tracingHandler struct {
	next http.Handler
	tr   *tracer
	tid  int
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := int64(-1)
	if v := r.Header.Get(opHeader); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			op = n
			r = r.WithContext(withOp(r.Context(), op))
		}
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.tr.record("server "+r.URL.Path, op, h.tid, start, time.Since(start))
}

// tracingSearcher times server-side searches at the server.Searcher seam.
type tracingSearcher struct {
	next server.Searcher
	tr   *tracer
}

func (s tracingSearcher) Search(ctx context.Context, req server.SearchRequest) ([]server.SearchResult, error) {
	start := time.Now()
	res, err := s.next.Search(ctx, req)
	s.tr.record("search", opOf(ctx), 100, start, time.Since(start))
	return res, err
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepts *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// selfTime is one layer's time excluding the layer below it: the
// difference between two adjacent tiers, per op.
type selfTime struct {
	layer   string
	outer   string
	inner   string
	outerUS float64
	innerUS float64
	ops     int
}

func (s selfTime) perOpUS() float64 { return perOp(s.outerUS-s.innerUS, s.ops) }

func (s selfTime) String() string {
	return fmt.Sprintf("%-22s %10.3f us/op  = (%s %.0f us - %s %.0f us) / %d ops",
		s.layer, s.perOpUS(), s.outer, s.outerUS, s.inner, s.innerUS, s.ops)
}
