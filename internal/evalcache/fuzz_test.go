package evalcache

import "testing"

// FuzzEvalCacheKey checks the cache is exact on keys: a second Do hits
// the first one's entry if and only if the two Keys are ==. Keys that
// differ in any field — including field values containing separator-like
// characters, and NaN caps, which never equal themselves — are distinct
// entries, so no probe result is ever served for another probe.
func FuzzEvalCacheKey(f *testing.F) {
	f.Add("rhs", 16, 8, 70.0, "x_solve", 16, 8, 70.0)
	f.Add("a|b", 4, 1, 55.0, "a", 4, 1, 55.0)
	f.Add(`r\`, 0, 0, 115.0, `r`, 0, 0, 115.0)
	f.Add("r", 8, 2, 70.0, "r", 8, 2, 85.0)
	f.Add("", 1, 1, 0.0, "", 1, 1, 0.0)
	f.Fuzz(func(t *testing.T, region1 string, threads1, chunk1 int, cap1 float64, region2 string, threads2, chunk2 int, cap2 float64) {
		k1 := Key{Arch: "Crill", App: "sp", Workload: "C", Region: region1, CapW: cap1, Config: Config{Threads: threads1, Chunk: chunk1}}
		k2 := Key{Arch: "Crill", App: "sp", Workload: "C", Region: region2, CapW: cap2, Config: Config{Threads: threads2, Chunk: chunk2}}
		c := New()
		hit(c, k1, 1)
		v, ok := hit(c, k2, 2)
		if ok != (k1 == k2) {
			t.Errorf("second Do hit=%v (value %g) for k1==k2 %v:\n  %+v\n  %+v", ok, v, k1 == k2, k1, k2)
		}
	})
}
