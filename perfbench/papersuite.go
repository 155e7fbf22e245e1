package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"time"

	"arcs/internal/bench"
	"arcs/internal/kernels"
	"arcs/internal/sim"
)

// paper-suite: every experiment of the arcsbench registry, in registry
// order, one op per experiment, through the harness worker pool. The
// tables must match results_arcsbench.txt byte for byte.
const (
	paperSecondsPerPass = 4 // a suite pass at pool width 2 takes about 3.6 s
	referenceFile       = "results_arcsbench.txt"
)

// paperWarmIDs are the cheap experiments run once outside timing.
var paperWarmIDs = []string{"fig1", "tab2", "fig3", "fig9"}

func paperExperimentIDs() []string {
	var ids []string
	for _, e := range bench.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

type paperSuite struct {
	cfg    *config
	passes int
}

func preparePaperSuite(cfg *config) (instance, error) {
	passes := cfg.seconds / paperSecondsPerPass
	if passes < 1 {
		passes = 1
	}
	return &paperSuite{cfg: cfg, passes: passes}, nil
}

type paperSystem struct {
	w    *paperSuite
	exps []bench.Experiment
	want map[string]string
	durs []time.Duration // per op, for paper.<id>_s
}

func (w *paperSuite) stage() {}

// setup is what the suite needs before its first experiment: the pool
// width, the registry, and the reference tables to compare against.
func (w *paperSuite) setup(*tracer) (system, error) {
	bench.SetParallelism(w.cfg.nproc)
	data, err := os.ReadFile(filepath.Join(w.cfg.root, referenceFile))
	if err != nil {
		return nil, fmt.Errorf("read reference tables: %w", err)
	}
	want, order := parseReference(string(data))
	exps := bench.Experiments()
	if len(order) != len(exps) {
		return nil, fmt.Errorf("%s has %d experiments, the registry %d", referenceFile, len(order), len(exps))
	}
	for i, e := range exps {
		if order[i] != e.ID {
			return nil, fmt.Errorf("%s lists %q at position %d, the registry %q", referenceFile, order[i], i, e.ID)
		}
	}
	return &paperSystem{w: w, exps: exps, want: want}, nil
}

var completedLine = regexp.MustCompile(`^\[(\S+) completed in [0-9.]+s\]$`)

// parseReference splits arcsbench's stdout into each experiment's
// output, dropping the timing lines: the "[id completed in Xs]" line
// closes a section, and the separator or suite summary after it is
// skipped.
func parseReference(text string) (map[string]string, []string) {
	sections := make(map[string]string)
	var order []string
	var cur strings.Builder
	skip := 0
	for _, line := range strings.SplitAfter(text, "\n") {
		if skip > 0 {
			skip--
			continue
		}
		if m := completedLine.FindStringSubmatch(strings.TrimSuffix(line, "\n")); m != nil {
			sections[m[1]] = cur.String()
			order = append(order, m[1])
			cur.Reset()
			skip = 3 // blank line, separator or suite summary, blank line
			continue
		}
		cur.WriteString(line)
	}
	return sections, order
}

func (s *paperSystem) runOne(e bench.Experiment) (time.Duration, error) {
	var buf bytes.Buffer
	start := time.Now()
	err := e.Run(&buf)
	d := time.Since(start)
	if err != nil {
		return d, fmt.Errorf("%s: %w", e.ID, err)
	}
	if got := buf.String(); got != s.want[e.ID] {
		return d, fmt.Errorf("%s: output differs from %s:\n%s", e.ID, referenceFile, firstDiff(got, s.want[e.ID]))
	}
	return d, nil
}

func (s *paperSystem) warmup(context.Context) error {
	for _, id := range paperWarmIDs {
		e, ok := bench.Lookup(id)
		if !ok {
			return fmt.Errorf("no experiment %q", id)
		}
		if _, err := s.runOne(e); err != nil {
			return err
		}
	}
	return nil
}

// run executes the suite passes one after another, each through the
// harness pool.
func (s *paperSystem) run(_ context.Context, tr *tracer) loopResult {
	per := len(s.exps)
	res := loopResult{lat: make([]time.Duration, s.w.passes*per)}
	var failed atomic.Int64
	start := time.Now()
	for p := 0; p < s.w.passes; p++ {
		err := bench.ForEach(per, func(j int) error {
			i := p*per + j
			t0 := time.Now()
			d, err := s.runOne(s.exps[j])
			res.lat[i] = d
			tr.record("experiment "+s.exps[j].ID, int64(i), 0, t0, d)
			if err != nil {
				failed.Add(1)
			}
			return err
		})
		if err != nil && res.firstErr == nil {
			res.firstErr = err
		}
	}
	res.wall = time.Since(start)
	res.failed = int(failed.Load())
	s.durs = res.lat
	return res
}

// verify has nothing left to check: every table was compared with the
// reference as it was produced.
func (s *paperSystem) verify(context.Context) error { return nil }

func (s *paperSystem) counts() []count {
	return []count{{"count.experiments", int64(len(s.durs))}}
}

func (s *paperSystem) layers(context.Context, *tracer) (*layerReport, error) {
	lr := &layerReport{values: map[string]float64{}}
	for i, e := range s.exps {
		var ds []float64
		for p := 0; p < s.w.passes; p++ {
			ds = append(ds, s.durs[p*len(s.exps)+i].Seconds())
		}
		lr.values["paper."+e.ID+"_s"] = median(ds)
	}
	lr.notes = append(lr.notes, fmt.Sprintf("paper.<id>_s = median of %d passes per experiment at pool width %d", s.w.passes, s.w.cfg.nproc))
	if err := probeTiers(lr); err != nil {
		return nil, err
	}
	return lr, nil
}

func (s *paperSystem) close() error { return nil }

// firstDiff shows the first differing line of two outputs.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, gl, wl)
		}
	}
	return "(identical lines, different bytes)"
}

// probeTiers times sim.Machine.ProbeLoop on a static NPB region (SP
// class B compute_rhs, 32 threads, static) and on a dynamic-1 LULESH
// region (mesh 45, 32 threads, dynamic chunk 1), reporting the median
// of several blocks of probes.
func probeTiers(lr *layerReport) error {
	m, err := sim.NewMachine(sim.Crill())
	if err != nil {
		return err
	}
	sp, err := kernels.SP(kernels.Class("B"))
	if err != nil {
		return err
	}
	lu, err := kernels.LULESH(45)
	if err != nil {
		return err
	}
	cases := []struct {
		metric       string
		lm           *sim.LoopModel
		cfg          sim.Config
		blocks, reps int
	}{
		{"sim.probe_static_ns", sp.Regions[0].Model, sim.Config{Threads: 32, Sched: sim.SchedStatic}, 15, 2000},
		{"sim.probe_dynamic_ns", lu.Regions[0].Model, sim.Config{Threads: 32, Sched: sim.SchedDynamic, Chunk: 1}, 9, 2},
	}
	for _, c := range cases {
		c.lm.Weights()
		if _, err := m.ProbeLoop(c.lm, c.cfg); err != nil {
			return err
		}
		var perProbe []float64
		for b := 0; b < c.blocks; b++ {
			start := time.Now()
			for r := 0; r < c.reps; r++ {
				if _, err := m.ProbeLoop(c.lm, c.cfg); err != nil {
					return err
				}
			}
			perProbe = append(perProbe, float64(time.Since(start).Nanoseconds())/float64(c.reps))
		}
		lr.values[c.metric] = median(perProbe)
		lr.notes = append(lr.notes, fmt.Sprintf("%s = median of %d blocks of %d ProbeLoop calls (%s, %s)",
			c.metric, c.blocks, c.reps, c.lm.Name, c.cfg))
	}
	return nil
}
