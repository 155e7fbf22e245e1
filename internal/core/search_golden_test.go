package arcs

import (
	"context"
	"fmt"
	"testing"

	"arcs/internal/evalcache"
	"arcs/internal/sim"
)

// goldenRegions adds a block-imbalanced region to searchRegions, so the
// pinned results cover three distinct loop shapes.
func goldenRegions() []RegionModel {
	blocks := imbalancedLoop()
	blocks.Name = "blocks"
	blocks.Imbalance = sim.Imbalance{Kind: sim.Blocks, Param: 3}
	return append(searchRegions(), RegionModel{Name: "blocks", Model: blocks})
}

// goldenBatchSearch pins BatchSearch's per-region results — winner, its
// perf, evaluations, fresh probes and cache hits — for every algorithm,
// first against a fresh eval cache and then again against the now-warm
// shared cache. The space includes the placement and DVFS dimensions, so
// every configuration field reaches the cache key.
var goldenBatchSearch = map[SearchAlgo][]string{
	AlgoNelderMead: {
		"fresh ramp cfg=0/2/0/0/0 perf=0.0039092945246285305 evals=10 probes=12 hits=0",
		"fresh balanced cfg=0/2/0/0/0 perf=0.0038078683402414108 evals=10 probes=12 hits=0",
		"fresh blocks cfg=0/2/0/0/0 perf=0.00385259851287719 evals=10 probes=12 hits=0",
		"warm ramp cfg=0/2/0/0/0 perf=0.0039092945246285305 evals=10 probes=0 hits=12",
		"warm balanced cfg=0/2/0/0/0 perf=0.0038078683402414108 evals=10 probes=0 hits=12",
		"warm blocks cfg=0/2/0/0/0 perf=0.00385259851287719 evals=10 probes=0 hits=12",
	},
	AlgoPRO: {
		"fresh ramp cfg=0/2/0/0/0 perf=0.0039092945246285305 evals=9 probes=9 hits=0",
		"fresh balanced cfg=0/2/0/0/0 perf=0.0038078683402414108 evals=10 probes=10 hits=0",
		"fresh blocks cfg=0/2/0/0/0 perf=0.00385259851287719 evals=15 probes=15 hits=0",
		"warm ramp cfg=0/2/0/0/0 perf=0.0039092945246285305 evals=9 probes=0 hits=9",
		"warm balanced cfg=0/2/0/0/0 perf=0.0038078683402414108 evals=10 probes=0 hits=10",
		"warm blocks cfg=0/2/0/0/0 perf=0.00385259851287719 evals=15 probes=0 hits=15",
	},
	AlgoSurrogate: {
		"fresh ramp cfg=0/1/1/1.92/2 perf=0.0039042842246285298 evals=23 probes=23 hits=0",
		"fresh balanced cfg=0/1/1/1.68/0 perf=0.003802858040241411 evals=20 probes=20 hits=0",
		"fresh blocks cfg=0/2/0/0/0 perf=0.00385259851287719 evals=21 probes=21 hits=0",
		"warm ramp cfg=0/1/1/1.92/2 perf=0.0039042842246285298 evals=23 probes=0 hits=23",
		"warm balanced cfg=0/1/1/1.68/0 perf=0.003802858040241411 evals=20 probes=0 hits=20",
		"warm blocks cfg=0/2/0/0/0 perf=0.00385259851287719 evals=21 probes=0 hits=21",
	},
	AlgoExhaustive: {
		"fresh ramp cfg=0/1/1/1.68/2 perf=0.0039042842246285298 evals=252 probes=252 hits=0",
		"fresh balanced cfg=0/1/1/1.68/2 perf=0.003802858040241411 evals=252 probes=252 hits=0",
		"fresh blocks cfg=0/2/1/1.68/2 perf=0.00385259851287719 evals=252 probes=252 hits=0",
		"warm ramp cfg=0/1/1/1.68/2 perf=0.0039042842246285298 evals=252 probes=0 hits=252",
		"warm balanced cfg=0/1/1/1.68/2 perf=0.003802858040241411 evals=252 probes=0 hits=252",
		"warm blocks cfg=0/2/1/1.68/2 perf=0.00385259851287719 evals=252 probes=0 hits=252",
	},
}

func TestBatchSearchGolden(t *testing.T) {
	arch := sim.Crill()
	space := smallSpace().WithBind().WithDVFS(arch)
	for _, algo := range []SearchAlgo{AlgoNelderMead, AlgoPRO, AlgoSurrogate, AlgoExhaustive} {
		cache := evalcache.New()
		opts := BatchSearchOptions{
			Space: space, Algo: algo, Seed: 11, CapW: 55, Parallelism: 2,
			Cache: cache, App: "sp", Workload: "B",
		}
		var got []string
		for _, phase := range []string{"fresh", "warm"} {
			res, err := BatchSearch(context.Background(), arch, goldenRegions(), opts)
			if err != nil {
				t.Fatalf("%v %s: %v", algo, phase, err)
			}
			for _, r := range res {
				c := r.Cfg
				got = append(got, fmt.Sprintf("%s %s cfg=%d/%d/%d/%g/%d perf=%.17g evals=%d probes=%d hits=%d",
					phase, r.Region, c.Threads, int(c.Schedule), c.Chunk, c.FreqGHz, int(c.Bind),
					r.Perf, r.Evals, r.Probes, r.Hits))
			}
		}
		want := goldenBatchSearch[algo]
		if len(got) != len(want) {
			t.Errorf("%v: %d results, want %d:\n%#v", algo, len(got), len(want), got)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%v result %d:\n got %s\nwant %s", algo, i, got[i], want[i])
			}
		}
	}
}
