package harmony

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
)

// golden_test.go pins the exact search trajectory of every strategy: a
// SHA-256 over everything the strategy proposed and was told (each Next,
// Report and NextBatch call) plus everything the session handed out (each
// Fetch/FetchBatch result, the final best and the evaluation count).
// Refactors of session bookkeeping, lattice numbering or strategy
// internals must leave these hashes unchanged; a changed hash is a changed
// search, whatever the winner.

// goldenSpace is 4-dimensional with one cardinality-1 dimension, so index
// arithmetic over degenerate dimensions is on the pinned path.
func goldenSpace(t *testing.T) Space {
	t.Helper()
	s, err := NewSpace(Param{"threads", 6}, Param{"one", 1}, Param{"sched", 5}, Param{"chunk", 4})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// goldenObjective is integer-valued (exact in float64) and multi-modal,
// with its global minimum at {4, 0, 2, 1} and ties elsewhere, so the
// strategies' tie-breaking is pinned too.
func goldenObjective(p Point) float64 {
	a, c, d := p[0]-4, p[2]-2, p[3]-1
	return float64(100 + 7*a*a + 5*c*c + 3*d*d + (p[0]*7+p[2]*13+p[3]*5)%11)
}

// traceStrategy forwards to a strategy and writes every call into h.
type traceStrategy struct {
	inner BatchStrategy
	h     hash.Hash
}

func (s traceStrategy) Next() (Point, bool) {
	p, ok := s.inner.Next()
	fmt.Fprintf(s.h, "next %v %t\n", p, ok)
	return p, ok
}

func (s traceStrategy) Report(p Point, perf float64) {
	fmt.Fprintf(s.h, "report %v %g\n", p, perf)
	s.inner.Report(p, perf)
}

func (s traceStrategy) NextBatch(max int) []Point {
	b := s.inner.NextBatch(max)
	fmt.Fprintf(s.h, "nextbatch %d %v\n", max, b)
	return b
}

func (s traceStrategy) Converged() bool { return s.inner.Converged() }
func (s traceStrategy) Name() string    { return s.inner.Name() }

// goldenTrajectory drives a session over strat to convergence, serially
// (width 0) or in FetchBatch(width) rounds, and returns the trace hash.
func goldenTrajectory(t *testing.T, space Space, strat BatchStrategy, width int) string {
	t.Helper()
	h := sha256.New()
	sess := NewSession(space, traceStrategy{inner: strat, h: h})
	for i := 0; ; i++ {
		if i > 100000 {
			t.Fatal("session did not converge")
		}
		if width == 0 {
			p, done := sess.Fetch()
			fmt.Fprintf(h, "fetch %v %t\n", p, done)
			if done {
				break
			}
			sess.Report(goldenObjective(p))
			continue
		}
		batch, done := sess.FetchBatch(width)
		fmt.Fprintf(h, "fetchbatch %v %t\n", batch, done)
		if done {
			break
		}
		perfs := make([]float64, len(batch))
		for j, p := range batch {
			perfs[j] = goldenObjective(p)
		}
		sess.ReportBatch(perfs)
	}
	best, perf, ok := sess.Best()
	fmt.Fprintf(h, "best %v %g %t evals %d\n", best, perf, ok, sess.Evals())
	return hex.EncodeToString(h.Sum(nil))
}

// goldenHashes pins, per strategy, the hashes of the serial Fetch/Report
// and the FetchBatch(4)/ReportBatch trajectories.
var goldenHashes = map[string][2]string{
	"exhaustive": {
		"241462b42bab3d7a0a7b6eb8cdfa220d882b61649745c2ca0ac944c684fd78d8",
		"3935e58cf231c313d53d4e4d41f91c91c695bec3887fccf1e5bd128cf58aa158",
	},
	"random": {
		"f847cd007fa61fea80262a5b572328fc0456787c5fb8ec066faed64a10e74f33",
		"74dd8dc73c78ac21114ea972973f36358da65aca56716a180694deef9d4f0ed0",
	},
	"nelder-mead": {
		"a36117178e49cb95ae7fc918383f37f486d570db7d1480c81967109735242557",
		"dfe7f82952f6743d5650e777718565c0a6293dcb267cafdad60752ee0a2c68e4",
	},
	"nelder-mead-local": {
		"20bafb1d1d9bae5f3a2bc1d9246919f28806e8eae7303f6b3126b8c99831affd",
		"59aff10946d73c9ecb612fdd8f8dbc05fac304a6b2c599c9320e1c32ec852b08",
	},
	"pro": {
		"ce7e1dde5a3dad4ad73a67474e1c4876fbb29ac397176faa06a41c432886408b",
		"29d816c693249bc6beb4a23983322daf63754169aa214451d036a0021695836f",
	},
	"coordinate-descent": {
		"110d37200a307de527166f834ab2bcce3a1e55fb089d46aefddeca657cd401f1",
		"73f3a5f706612b123529e2750156760dd640b15f5f05da01ac38b51cc6d4acf0",
	},
	"surrogate": {
		"37b1ef3749fc6c73cd212dd5efacded25c6a8a470009422ba93459fb60789ecc",
		"a462e97c3762ae065354954465ddd4c4fb66ee4480c229d7bc9bfe74e27d224b",
	},
	"surrogate-seeded": {
		"3dc7921a965c4b67ab47480ce9f5d7a5a720ee61bec3430c8d28c34a7e9c9b2c",
		"e89fb0e5001717c18612cca8deb81036d575d8992039b01ae90e15d409365695",
	},
	"surrogate-transfer": {
		"3dc7921a965c4b67ab47480ce9f5d7a5a720ee61bec3430c8d28c34a7e9c9b2c",
		"e89fb0e5001717c18612cca8deb81036d575d8992039b01ae90e15d409365695",
	},
	"surrogate-transfer-verified": {
		"69b7120acf1a63260eb5ade053104e0bcb164592bb76f9594ec7a48164a6039b",
		"16761b3ce33812c320e2eb122b3499fb6dcde03bf7679a624c857a9b9aeb6c7a",
	},
}

func TestGoldenTrajectories(t *testing.T) {
	space := goldenSpace(t)
	seeds := []Point{{4, 0, 3, 1}, {3, 0, 2, 2}, {9, 3, 2, 1}}
	cases := []struct {
		name string
		mk   func() BatchStrategy
	}{
		{"exhaustive", func() BatchStrategy { return NewExhaustive(space) }},
		{"random", func() BatchStrategy { return NewRandom(space, 40, 99) }},
		{"nelder-mead", func() BatchStrategy { return NewNelderMead(space, Point{0, 0, 0, 0}, 0) }},
		{"nelder-mead-local", func() BatchStrategy { return NewNelderMeadLocal(space, Point{2, 0, 4, 3}, 20) }},
		{"pro", func() BatchStrategy { return NewPRO(space, Point{5, 0, 4, 3}, 0, 7) }},
		{"coordinate-descent", func() BatchStrategy { return NewCoordinateDescent(space, Point{2, 0, 1, 3}, 0) }},
		{"surrogate", func() BatchStrategy { return NewSurrogate(space, Point{0, 0, 0, 0}, 0, 2024, nil) }},
		{"surrogate-seeded", func() BatchStrategy { return NewSurrogate(space, Point{0, 0, 0, 0}, 0, 2024, seeds) }},
		{"surrogate-transfer", func() BatchStrategy {
			// Unmeetable promises: every seed deviates, so the full
			// model/refine/polish pipeline runs.
			return NewSurrogateTransfer(space, Point{0, 0, 0, 0}, 0, 2024, seeds, []float64{1, 1, 1})
		}},
		{"surrogate-transfer-verified", func() BatchStrategy {
			// The second seed keeps its promise: the verified exit fires.
			return NewSurrogateTransfer(space, Point{0, 0, 0, 0}, 0, 2024, seeds, []float64{1, 110, 0})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := goldenHashes[tc.name]
			if got := goldenTrajectory(t, space, tc.mk(), 0); got != want[0] {
				t.Errorf("serial trajectory hash = %q, want %q", got, want[0])
			}
			if got := goldenTrajectory(t, space, tc.mk(), 4); got != want[1] {
				t.Errorf("batched trajectory hash = %q, want %q", got, want[1])
			}
		})
	}
}
