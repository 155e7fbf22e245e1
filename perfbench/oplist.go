package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	arcs "arcs/internal/core"
	"arcs/internal/ompt"
)

// newRNG derives an independent, reproducible random stream for one
// purpose of one run: the same seed and stream name always give the
// same sequence, and different names never share one.
func newRNG(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64()&(1<<62-1))))
}

// zipfIndices draws count indices in [0, n) with a Zipf(s) skew. Rank 0
// is the hottest; ranks map through a seeded permutation so the hot set
// is scattered over the key space rather than being its first keys.
func zipfIndices(r *rand.Rand, n, count int, s float64) []int {
	if n <= 0 || count <= 0 {
		return nil
	}
	perm := r.Perm(n)
	out := make([]int, count)
	if n == 1 {
		return out
	}
	z := rand.NewZipf(r, s, 1, uint64(n-1))
	for i := range out {
		out[i] = perm[z.Uint64()]
	}
	return out
}

// sampleDistinct returns k distinct indices from [0, n) in a seeded
// order; k is clamped to n.
func sampleDistinct(r *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	return r.Perm(n)[:k]
}

// appContexts are the app/workload pairs the service workloads draw
// from: the paper's NPB kernels at classes B and C and LULESH at both
// mesh sizes.
var appContexts = []struct{ app, workload string }{
	{"SP", "B"}, {"SP", "C"}, {"BT", "B"}, {"BT", "C"}, {"LULESH", "45"}, {"LULESH", "60"},
}

var (
	benchThreads   = []int{2, 4, 8, 16, 24, 32}
	benchSchedules = []ompt.ScheduleKind{ompt.ScheduleStatic, ompt.ScheduleDynamic, ompt.ScheduleGuided}
	benchChunks    = []int{1, 8, 16, 32, 64, 128, 256, 512}
)

// randomConfig draws a configuration from the paper's Table I space.
func randomConfig(r *rand.Rand) arcs.ConfigValues {
	return arcs.ConfigValues{
		Threads:  benchThreads[r.Intn(len(benchThreads))],
		Schedule: benchSchedules[r.Intn(len(benchSchedules))],
		Chunk:    benchChunks[r.Intn(len(benchChunks))],
	}
}

// keyRegions is the number of region names in a keySpace.
const keyRegions = 8

// keySpace is a dense, collision-free key space: consecutive indices walk
// the app contexts and the region names, then step the power cap by
// 0.01 W from 40 W. The region names carry a prefix that separates key
// spaces (a preload set from an ingest set); they are built once, so a
// key costs no allocation.
type keySpace struct {
	regions [keyRegions]string
}

func newKeySpace(prefix string) *keySpace {
	ks := &keySpace{}
	for r := range ks.regions {
		ks.regions[r] = fmt.Sprintf("%s%d", prefix, r)
	}
	return ks
}

// key returns the i-th key.
func (ks *keySpace) key(i int) arcs.HistoryKey {
	c := appContexts[i%len(appContexts)]
	return arcs.HistoryKey{
		App:      c.app,
		Workload: c.workload,
		Region:   ks.regions[(i/len(appContexts))%keyRegions],
		CapW:     40 + float64(i/(len(appContexts)*keyRegions))/100,
	}
}
