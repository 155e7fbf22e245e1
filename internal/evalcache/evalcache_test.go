package evalcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func key(region string, threads int, cap float64) Key {
	return Key{
		Arch: "Crill", App: "sp", Workload: "C", Region: region, CapW: cap,
		Config: Config{Threads: threads, Schedule: 2, Chunk: 8},
	}
}

// hit reports whether Do served k from the cache (f did not run), and the
// value it returned.
func hit(c *Cache, k Key, v float64) (float64, bool) {
	ran := false
	got, _ := c.Do(k, func() (float64, error) { ran = true; return v, nil })
	return got, !ran
}

// TestGetPut: the get/put round trip through Do — a miss computes and
// stores, a repeat hits with the stored value, and a different cap is a
// different entry.
func TestGetPut(t *testing.T) {
	c := New()
	k := key("rhs", 16, 70)
	if _, ok := hit(c, k, 1.25); ok {
		t.Fatal("hit on empty cache")
	}
	v, ok := hit(c, k, 9)
	if !ok || v != 1.25 {
		t.Fatalf("Do = %g, hit %v; want 1.25, true", v, ok)
	}
	// Distinct cap, same everything else: distinct entry.
	if _, ok := hit(c, key("rhs", 16, 55), 2); ok {
		t.Fatal("cap 55 aliased cap 70")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v; want 1 hit, 2 misses, 2 entries", st)
	}
}

// TestKeyFieldsDistinct: a Key differing from the base in any single
// field, including each Config field, is its own entry; an equal Key
// (built separately) hits the base entry.
func TestKeyFieldsDistinct(t *testing.T) {
	base := Key{
		Arch: "Crill", App: "sp", Workload: "C", Region: "rhs", CapW: 70,
		Config: Config{Threads: 16, Schedule: 2, Chunk: 8, Bind: 1, FreqGHz: 1.8},
	}
	cases := []struct {
		name string
		mod  func(*Key)
	}{
		{"arch", func(k *Key) { k.Arch = "Minotaur" }},
		{"app", func(k *Key) { k.App = "bt" }},
		{"workload", func(k *Key) { k.Workload = "B" }},
		{"region", func(k *Key) { k.Region = "x_solve" }},
		{"cap", func(k *Key) { k.CapW = 55 }},
		{"threads", func(k *Key) { k.Config.Threads = 8 }},
		{"schedule", func(k *Key) { k.Config.Schedule = 1 }},
		{"chunk", func(k *Key) { k.Config.Chunk = 16 }},
		{"bind", func(k *Key) { k.Config.Bind = 2 }},
		{"freq", func(k *Key) { k.Config.FreqGHz = 2.4 }},
		// The separator-collision shapes a joined string form had to
		// escape are just different field values.
		{"region-with-separator", func(k *Key) { k.Region = "rhs|16" }},
		{"shifted-fields", func(k *Key) { k.Workload, k.Region = "C|rhs", "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New()
			hit(c, base, 1)
			k := base
			tc.mod(&k)
			if v, ok := hit(c, k, 2); ok {
				t.Errorf("%+v aliased base entry (got %g)", k, v)
			}
			same := Key{
				Arch: "Crill", App: "sp", Workload: "C", Region: "rhs", CapW: 70,
				Config: Config{Threads: 16, Schedule: 2, Chunk: 8, Bind: 1, FreqGHz: 1.8},
			}
			if v, ok := hit(c, same, 3); !ok || v != 1 {
				t.Errorf("equal key: Do = %g, hit %v; want 1, true", v, ok)
			}
			if c.Len() != 2 {
				t.Errorf("Len = %d, want 2", c.Len())
			}
		})
	}
}

func TestDoMemoises(t *testing.T) {
	c := New()
	k := key("rhs", 8, 115)
	var calls atomic.Int64
	f := func() (float64, error) { calls.Add(1); return 2.5, nil }
	for i := 0; i < 5; i++ {
		v, err := c.Do(k, f)
		if err != nil || v != 2.5 {
			t.Fatalf("Do = %g, %v", v, err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Errorf("stats = %+v; want 1 miss, 4 hits", st)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New()
	k := key("rhs", 8, 115)
	boom := errors.New("boom")
	if _, err := c.Do(k, func() (float64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("error result was cached")
	}
	// The retry computes afresh rather than sharing the failure.
	if v, ok := hit(c, k, 3); ok || v != 3 {
		t.Fatalf("retry Do = %g, hit %v; want 3, false", v, ok)
	}
	st := c.Stats()
	if st.Errors != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v; want 1 error, 1 entry", st)
	}
}

// TestDoSingleFlight: concurrent Do calls on one key run the compute
// function exactly once; everyone shares the result. Run under -race.
func TestDoSingleFlight(t *testing.T) {
	c := New()
	k := key("rhs", 32, 85)
	var calls atomic.Int64
	gate := make(chan struct{})
	const workers = 32
	results := make([]float64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(k, func() (float64, error) {
				calls.Add(1)
				<-gate // hold the flight open so the others pile up
				return 7.5, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
		}(i)
	}
	// Let every worker reach Do before releasing the one compute.
	for c.Stats().InFlight == 0 {
	}
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	for i, v := range results {
		if v != 7.5 {
			t.Errorf("worker %d got %g", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.InFlight != 0 {
		t.Errorf("stats = %+v; want 1 miss, 0 in flight", st)
	}
	if st.Dedups+st.Hits != workers-1 {
		t.Errorf("dedups+hits = %d, want %d", st.Dedups+st.Hits, workers-1)
	}
}

// TestConcurrentDistinctKeys: heavy mixed traffic over many keys stays
// consistent (the -race workhorse).
func TestConcurrentDistinctKeys(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprintf("r%d", i%17), i%5, float64(55+5*(i%3)))
				want := float64(i%17*100 + i%5*10 + i%3)
				v, err := c.Do(k, func() (float64, error) { return want, nil })
				if err != nil || v != want {
					t.Errorf("worker %d: Do = %g, %v; want %g", w, v, err, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// (i mod 17, i mod 5, i mod 3) is injective over i in [0, 200) by CRT
	// (lcm = 255), so every iteration makes a distinct key.
	if got, want := c.Len(), 200; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}

// TestNilCache: a nil *Cache degrades to pass-through so callers can keep
// the cache optional without nil checks at every site.
func TestNilCache(t *testing.T) {
	var c *Cache
	for i := 0; i < 2; i++ {
		// Every call computes: nothing is ever stored.
		if v, ok := hit(c, key("r", 1, 70), 4); ok || v != 4 {
			t.Errorf("nil Do = %g, hit %v; want 4, false", v, ok)
		}
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil Stats = %+v", st)
	}
	if c.Len() != 0 {
		t.Error("nil Len != 0")
	}
}
