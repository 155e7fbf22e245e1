package evalcache

import "testing"

// BenchmarkCacheDoHit is an exact hit: the lookup a warm search makes for
// every probe it would otherwise run. The perf gate holds it at
// 0 allocs/op.
func BenchmarkCacheDoHit(b *testing.B) {
	c := New()
	k := Key{
		Arch: "Crill", App: "sp", Workload: "B", Region: "compute_rhs", CapW: 70,
		Config: Config{Threads: 16, Schedule: 2, Chunk: 8},
	}
	f := func() (float64, error) { return 1.25, nil }
	if _, err := c.Do(k, f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(k, f); err != nil {
			b.Fatal(err)
		}
	}
}
