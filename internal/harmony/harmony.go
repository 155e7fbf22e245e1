// Package harmony implements an Active Harmony-style auto-tuning search
// engine (§III-B of the paper): tuning sessions over a discrete parameter
// space, with exhaustive, Nelder-Mead, Parallel Rank Order and random
// search strategies. The paper's ARCS-Offline strategy uses exhaustive
// search; ARCS-Online uses Nelder-Mead.
//
// A session is driven in the client-server style of Active Harmony:
//
//	pt, done := sess.Fetch()   // next candidate (or the best, once done)
//	perf := measure(pt)
//	sess.Report(perf)          // feeds the strategy, updates the best
//
// Strategies that implement BatchStrategy additionally expose whole rounds
// of candidates for concurrent evaluation through the batched protocol:
//
//	batch, done := sess.FetchBatch(width) // candidates safe to run in parallel
//	perfs := measureAll(batch)            // any order, results by index
//	sess.ReportBatch(perfs)               // merged in batch order
//
// The batched protocol is a strict superset of the serial one — results
// are merged in batch order (never completion order) through the same
// Fetch/Report state machine, so a batched session converges to the
// identical winner with the identical evaluation count as a serial
// session over the same strategy and seed. Speculative candidates whose
// results the strategy never consumes stay in a session-side memo and
// are reused if the search reaches them later.
//
// Points are index vectors into the per-parameter value sets; mapping
// indices to OpenMP configuration values is the caller's concern. The
// lattice has one numbering: Space.At(i) is the i-th point in
// lexicographic order (dimension 0 slowest) and Space.Index is its
// inverse on valid points. Sessions and strategies key their bookkeeping
// on these indices, and Exhaustive enumerates them in order.
package harmony

import (
	"fmt"
	"slices"
)

// Param is one tunable dimension: a name and the cardinality of its
// discrete value set.
type Param struct {
	Name string
	Card int
}

// Space is the Cartesian product of the parameters' value sets.
type Space struct {
	Params []Param
}

// NewSpace validates and builds a space.
func NewSpace(params ...Param) (Space, error) {
	if len(params) == 0 {
		return Space{}, fmt.Errorf("harmony: empty parameter space")
	}
	for _, p := range params {
		if p.Card <= 0 {
			return Space{}, fmt.Errorf("harmony: parameter %q has cardinality %d", p.Name, p.Card)
		}
	}
	return Space{Params: params}, nil
}

// Dims returns the number of parameters.
func (s Space) Dims() int { return len(s.Params) }

// Size returns the total number of lattice points.
func (s Space) Size() int {
	n := 1
	for _, p := range s.Params {
		n *= p.Card
	}
	return n
}

// Valid reports whether p is a point of this space.
func (s Space) Valid(p Point) bool {
	if len(p) != len(s.Params) {
		return false
	}
	for i, v := range p {
		if v < 0 || v >= s.Params[i].Card {
			return false
		}
	}
	return true
}

// Clamp limits each coordinate into range, returning a new point.
func (s Space) Clamp(p Point) Point {
	out := make(Point, len(p))
	for i, v := range p {
		if v < 0 {
			v = 0
		}
		if v >= s.Params[i].Card {
			v = s.Params[i].Card - 1
		}
		out[i] = v
	}
	return out
}

// At returns the idx-th lattice point in lexicographic order, dimension 0
// slowest; idx must be in [0, Size()).
func (s Space) At(idx int) Point {
	p := make(Point, len(s.Params))
	for i := len(p) - 1; i >= 0; i-- {
		card := s.Params[i].Card
		p[i] = idx % card
		idx /= card
	}
	return p
}

// Index is the inverse of At: the lexicographic position of p, which must
// be a valid point of this space.
func (s Space) Index(p Point) int {
	idx := 0
	for i, v := range p {
		idx = idx*s.Params[i].Card + v
	}
	return idx
}

// Point is an index vector, one index per parameter.
type Point []int

// Clone returns a copy.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// Equal reports element-wise equality.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Strategy is a search algorithm. Implementations are single-threaded
// state machines: Next proposes a candidate, Report feeds its measured
// performance (lower is better) back.
type Strategy interface {
	// Next returns the next candidate. ok=false means the strategy has
	// converged or exhausted its budget; use the session's best point.
	Next() (p Point, ok bool)
	// Report delivers the performance of the point last returned by Next.
	Report(p Point, perf float64)
	// Converged reports whether the strategy has finished.
	Converged() bool
	// Name identifies the strategy for logs and history files.
	Name() string
}

// BatchStrategy is implemented by strategies that can propose a whole
// round of candidates for concurrent evaluation: PRO's 2d-1 reflections,
// Nelder-Mead's speculative reflect/expand/contract branches, the next
// enumeration window of Exhaustive and Random. NextBatch is advisory and
// must not mutate the strategy's observable Next/Report stream: the
// serial Fetch/Report protocol remains the source of truth (a strategy
// driven one point at a time behaves as a batch of 1), which is what
// makes batched and serial sessions bit-identical.
type BatchStrategy interface {
	Strategy
	// NextBatch returns up to max candidates that can usefully be
	// evaluated concurrently right now, starting with the point Next
	// would return. Later entries may be speculative: the strategy may
	// end up never asking for their results.
	NextBatch(max int) []Point
}

// Session drives one tuning search: it deduplicates candidate evaluations
// (re-reporting cached results to the strategy, as Active Harmony's point
// rejection does), tracks the global best, and exposes the fetch/report
// protocol.
type Session struct {
	space Space
	strat Strategy

	cache    map[int]float64 // by lattice index
	pending  Point
	hasPend  bool
	best     Point
	bestPerf float64
	hasBest  bool
	evals    int
	fetches  int

	// Batched-protocol state: the outstanding FetchBatch (nil when none)
	// and the memo of measured-but-not-yet-consumed speculative results.
	batch []Point
	memo  map[int]float64 // by lattice index
}

// NewSession creates a session for the given space and strategy.
func NewSession(space Space, strat Strategy) *Session {
	return &Session{space: space, strat: strat, cache: make(map[int]float64)}
}

// Space returns the session's parameter space.
func (s *Session) Space() Space { return s.space }

// StrategyName returns the underlying strategy's name.
func (s *Session) StrategyName() string { return s.strat.Name() }

// Fetch returns the next configuration to run. done=true means the search
// has converged and the returned point is the best found (which the caller
// should keep using). Fetch panics if a previous Fetch was never Reported.
func (s *Session) Fetch() (p Point, done bool) {
	if s.hasPend {
		panic("harmony: Fetch called with a pending unreported point")
	}
	if s.strat.Converged() {
		return s.bestOrZero(), true
	}
	// Bound the auto-replay loop by the space size plus slack: a strategy
	// proposing only cached points will drain its budget through replays.
	limit := s.space.Size() + 64
	for i := 0; i < limit; i++ {
		p, ok := s.strat.Next()
		if !ok {
			return s.bestOrZero(), true
		}
		p = s.space.Clamp(p)
		if perf, seen := s.cache[s.space.Index(p)]; seen {
			s.strat.Report(p, perf)
			if s.strat.Converged() {
				return s.bestOrZero(), true
			}
			continue
		}
		s.pending = p.Clone()
		s.hasPend = true
		s.fetches++
		return s.pending, false
	}
	return s.bestOrZero(), true
}

// Report delivers the measured performance (lower is better) of the point
// returned by the last Fetch.
func (s *Session) Report(perf float64) {
	if !s.hasPend {
		panic("harmony: Report without pending point")
	}
	p := s.pending
	s.hasPend = false
	s.cache[s.space.Index(p)] = perf
	s.evals++
	if !s.hasBest || perf < s.bestPerf {
		s.best = p.Clone()
		s.bestPerf = perf
		s.hasBest = true
	}
	s.strat.Report(p, perf)
}

// FetchBatch returns the next batch of distinct, unevaluated candidates
// for concurrent evaluation, or done=true once the search has converged.
// The first element is always the point a serial Fetch would have
// returned; the rest are the remainder of the strategy's current round
// (or speculative branches) when it implements BatchStrategy, capped at
// max. FetchBatch panics if a previous batch was never ReportBatch'ed.
// Batched and serial calls may be interleaved between (but not within)
// batches.
func (s *Session) FetchBatch(max int) (batch []Point, done bool) {
	if s.batch != nil {
		panic("harmony: FetchBatch called with a pending unreported batch")
	}
	if max < 1 {
		max = 1
	}
	if !s.hasPend {
		if _, done := s.Fetch(); done {
			return nil, true
		}
	}
	batch = append(batch, s.pending.Clone())
	if bs, ok := s.strat.(BatchStrategy); ok && max > 1 {
		idxs := []int{s.space.Index(s.pending)}
		for _, q := range bs.NextBatch(max) {
			if len(batch) >= max {
				break
			}
			q = s.space.Clamp(q)
			k := s.space.Index(q)
			if _, seen := s.cache[k]; seen {
				continue
			}
			if _, seen := s.memo[k]; seen {
				continue
			}
			if !slices.Contains(idxs, k) {
				batch = append(batch, q)
				idxs = append(idxs, k)
			}
		}
	}
	s.batch = batch
	return batch, false
}

// ReportBatch delivers the measured performances of the batch returned by
// the last FetchBatch, perfs[i] belonging to batch[i]. Results are merged
// through the serial Fetch/Report state machine in batch order — never in
// completion order — so the session's winner and evaluation count are
// identical to a serial session's; results the strategy does not consume
// remain memoised for later rounds.
func (s *Session) ReportBatch(perfs []float64) {
	if s.batch == nil {
		panic("harmony: ReportBatch without a pending batch")
	}
	if len(perfs) != len(s.batch) {
		panic(fmt.Sprintf("harmony: ReportBatch got %d perfs for a batch of %d", len(perfs), len(s.batch)))
	}
	if s.memo == nil {
		s.memo = make(map[int]float64)
	}
	for i, q := range s.batch {
		s.memo[s.space.Index(q)] = perfs[i]
	}
	s.batch = nil
	// Drain: consume memoised results through the serial protocol until a
	// fetched point needs a fresh evaluation (it becomes the head of the
	// next batch) or the search converges.
	for s.hasPend {
		perf, ok := s.memo[s.space.Index(s.pending)]
		if !ok {
			return
		}
		s.Report(perf)
		if _, done := s.Fetch(); done {
			return
		}
	}
}

// Best returns the best point and its performance; ok=false if nothing has
// been evaluated yet.
func (s *Session) Best() (Point, float64, bool) {
	if !s.hasBest {
		return nil, 0, false
	}
	return s.best.Clone(), s.bestPerf, true
}

// Converged reports whether the search has finished.
func (s *Session) Converged() bool { return s.strat.Converged() && !s.hasPend }

// Evals returns the number of distinct configurations evaluated.
func (s *Session) Evals() int { return s.evals }

func (s *Session) bestOrZero() Point {
	if s.hasBest {
		return s.best.Clone()
	}
	return make(Point, s.space.Dims())
}
