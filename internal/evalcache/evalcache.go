// Package evalcache memoises simulator probe results for Harmony
// searches. A probe is fully determined by the architecture, the
// application, its workload, the region, the effective package power cap,
// and the runtime configuration being measured — the same tuple the
// paper's history store keys on (§III-B), extended with the concrete
// configuration. Repeated searches over the same context (a re-search at
// an already-visited cap, a server answering the same request twice, a
// benchmark sweep revisiting Table-I points) therefore hit the cache and
// skip the probe entirely.
//
// The cache is safe for concurrent use and provides single-flight
// deduplication: when several workers ask for the same key at once, one
// computes while the rest wait and share its result. Errors are returned
// to every waiter but never cached, so a transient failure does not
// poison the key.
package evalcache

import "sync"

// Key identifies one probe. It is comparable: two Keys name the same probe
// exactly when they are ==. CapW must be the *effective* cap (TDP when
// uncapped): performance under a 55 W cap and under TDP differ wildly for
// the same configuration, so omitting the cap would alias distinct
// measurements (see DESIGN.md). A NaN CapW never equals itself, so such a
// key never hits; callers reject non-finite caps before keying.
type Key struct {
	Arch     string
	App      string
	Workload string
	Region   string
	CapW     float64
	Config   Config
}

// Config is the runtime configuration a probe measures, in the plain
// numeric form of arcs.ConfigValues (schedule and placement as their enum
// values).
type Config struct {
	Threads, Schedule, Chunk, Bind int
	FreqGHz                        float64
}

// Stats is a snapshot of the cache counters, exported on /metrics.
type Stats struct {
	Hits     uint64 // Do served from the cache
	Misses   uint64 // Do invocations that ran the compute function
	Dedups   uint64 // Do invocations that waited on another worker's compute
	Errors   uint64 // compute failures (never cached)
	Entries  int    // resident values
	InFlight int    // computes currently running
}

// probeCtx is a Key without its Config: the search context (one region
// at one cap) that a whole search's probes share.
type probeCtx struct {
	Arch, App, Workload, Region string
	CapW                        float64
}

// slot keys a resident value: the interned ids of the probe's context and
// of its configuration. A cache holds hundreds of thousands of values but
// only thousands of contexts and a few hundred configurations, so an
// 8-byte slot in place of a 112-byte Key keeps the cache small.
type slot [2]uint32

// call is one in-flight single-flight computation.
type call struct {
	done chan struct{}
	val  float64
	err  error
}

// Cache is a concurrency-safe memoising store of probe results with
// single-flight deduplication. The zero value is NOT ready; use New.
type Cache struct {
	mu      sync.Mutex
	ctxs    map[probeCtx]uint32 // guarded by mu; interned contexts
	cfgs    map[Config]uint32   // guarded by mu; interned configurations
	vals    map[slot]float64    // guarded by mu
	flights map[Key]*call       // guarded by mu

	hits   uint64 // guarded by mu
	misses uint64 // guarded by mu
	dedups uint64 // guarded by mu
	errs   uint64 // guarded by mu
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{
		ctxs:    make(map[probeCtx]uint32),
		cfgs:    make(map[Config]uint32),
		vals:    make(map[slot]float64),
		flights: make(map[Key]*call),
	}
}

// Do returns the value for k, computing it with f on a miss. Concurrent
// Do calls for the same key are deduplicated: exactly one runs f, the
// rest block until it finishes and share the result. An error from f is
// propagated to every waiter and nothing is cached. A hit allocates
// nothing.
//
//arcslint:hotpath probe memoisation on the search hot path
func (c *Cache) Do(k Key, f func() (float64, error)) (float64, error) {
	if c == nil {
		return f()
	}
	c.mu.Lock()
	if v, ok := c.vals[c.slot(k)]; ok {
		c.hits++
		c.mu.Unlock()
		return v, nil
	}
	if fl, ok := c.flights[k]; ok {
		c.dedups++
		c.mu.Unlock()
		<-fl.done
		return fl.val, fl.err
	}
	fl := &call{done: make(chan struct{})}
	c.flights[k] = fl
	c.misses++
	c.mu.Unlock()

	fl.val, fl.err = f()

	c.mu.Lock()
	delete(c.flights, k)
	if fl.err == nil {
		c.vals[c.slot(k)] = fl.val
	} else {
		c.errs++
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, fl.err
}

// slot returns k's value-map key, interning its context and
// configuration on first use. Interned ids live as long as the cache, as
// its values do.
//
//arcslint:locked mu
//arcslint:hotpath called by Do on every lookup
func (c *Cache) slot(k Key) slot {
	return slot{
		intern(c.ctxs, probeCtx{k.Arch, k.App, k.Workload, k.Region, k.CapW}),
		intern(c.cfgs, k.Config),
	}
}

// intern returns v's dense id in m, adding it if absent.
func intern[V comparable](m map[V]uint32, v V) uint32 {
	id, ok := m[v]
	if !ok {
		id = uint32(len(m))
		m[v] = id
	}
	return id
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:     c.hits,
		Misses:   c.misses,
		Dedups:   c.dedups,
		Errors:   c.errs,
		Entries:  len(c.vals),
		InFlight: len(c.flights),
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vals)
}
