package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"arcs/internal/store"
)

// node is one in-process arcsd: a store and a handler served over a
// loopback listener.
type node struct {
	st      *store.Store
	hs      *http.Server
	addr    string
	accepts atomic.Int64
	served  chan error
}

// listen opens a loopback listener on a free port.
func listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return ln, nil
}

// startNode serves h on ln. With a tracer the listener counts accepted
// connections and the handler is timed per path.
func startNode(ln net.Listener, st *store.Store, h http.Handler, tr *tracer, tid int) *node {
	n := &node{st: st, addr: ln.Addr().String(), served: make(chan error, 1)}
	if tr != nil {
		ln = countingListener{Listener: ln, accepts: &n.accepts}
		h = &tracingHandler{next: h, tr: tr, tid: tid}
	}
	n.hs = &http.Server{Handler: h}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n
}

// close stops the listener and every connection, waits for Serve to
// return, and closes the store.
func (n *node) close() error {
	err := n.hs.Close()
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := n.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// newHTTPClient builds one client's own transport, as a separate ARCS
// process would have. dial, when set, resolves the fleet's fixed node
// names to their loopback listeners; with a tracer every round trip is
// timed under spanName.
func newHTTPClient(tr *tracer, spanName string, tid int, dial func(ctx context.Context, network, addr string) (net.Conn, error)) (*http.Client, *http.Transport) {
	t := http.DefaultTransport.(*http.Transport).Clone()
	if dial != nil {
		t.DialContext = dial
	}
	var rt http.RoundTripper = t
	if tr != nil {
		rt = &tracingTransport{next: t, tr: tr, name: spanName, tid: tid}
	}
	return &http.Client{Transport: rt, Timeout: 30 * time.Second}, t
}

// scrape reads a node's /metrics as a series -> value map.
func scrape(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: bad line %q", base, line)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	return out, nil
}

// metricDelta sums after-before of one series over every node.
func metricDelta(before, after []map[string]float64, series string) float64 {
	d := 0.0
	for i := range after {
		d += after[i][series] - before[i][series]
	}
	return d
}

// meanLatencyUS is the mean request latency of one endpoint over a run,
// from the arcsd_request_seconds sum and count deltas.
func meanLatencyUS(before, after []map[string]float64, endpoint string) (float64, float64) {
	sum := metricDelta(before, after, `arcsd_request_seconds_sum{endpoint="`+endpoint+`"}`)
	n := metricDelta(before, after, `arcsd_request_seconds_count{endpoint="`+endpoint+`"}`)
	if n == 0 {
		return 0, 0
	}
	return sum / n * 1e6, n
}
