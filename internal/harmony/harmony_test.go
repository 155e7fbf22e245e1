package harmony

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func space3(t *testing.T) Space {
	t.Helper()
	s, err := NewSpace(Param{"threads", 7}, Param{"sched", 4}, Param{"chunk", 9})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// quad is a convex objective with minimum at target.
func quad(target Point) func(Point) float64 {
	return func(p Point) float64 {
		var s float64
		for i := range p {
			d := float64(p[i] - target[i])
			s += d * d
		}
		return s + 1
	}
}

// drive runs a session to convergence against f, with an eval budget guard.
func drive(t *testing.T, sess *Session, f func(Point) float64, guard int) Point {
	t.Helper()
	for i := 0; i < guard; i++ {
		p, done := sess.Fetch()
		if done {
			return p
		}
		sess.Report(f(p))
	}
	t.Fatalf("session did not converge within %d fetches", guard)
	return nil
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(); err == nil {
		t.Errorf("empty space must fail")
	}
	if _, err := NewSpace(Param{"x", 0}); err == nil {
		t.Errorf("zero cardinality must fail")
	}
	s, err := NewSpace(Param{"x", 3}, Param{"y", 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 15 || s.Dims() != 2 {
		t.Errorf("Size=%d Dims=%d", s.Size(), s.Dims())
	}
}

func TestSpaceValidClamp(t *testing.T) {
	s := space3(t)
	if !s.Valid(Point{0, 0, 0}) || !s.Valid(Point{6, 3, 8}) {
		t.Errorf("corner points must be valid")
	}
	if s.Valid(Point{7, 0, 0}) || s.Valid(Point{-1, 0, 0}) || s.Valid(Point{0, 0}) {
		t.Errorf("out-of-range points must be invalid")
	}
	c := s.Clamp(Point{99, -5, 4})
	if !c.Equal(Point{6, 0, 4}) {
		t.Errorf("Clamp = %v", c)
	}
}

func TestPointHelpers(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	q[0] = 9
	if p[0] != 1 {
		t.Errorf("Clone must not alias")
	}
	if !p.Equal(Point{1, 2, 3}) || p.Equal(q) || p.Equal(Point{1, 2}) {
		t.Errorf("Equal wrong")
	}
}

// TestIndexAtRoundTrip: At enumerates the lattice in the lexicographic
// odometer order (dimension 0 slowest, last dimension fastest) and Index
// inverts it, including over cardinality-1 dimensions.
func TestIndexAtRoundTrip(t *testing.T) {
	for _, cards := range [][]int{{1}, {7}, {7, 4, 9}, {1, 1, 1}, {6, 1, 5, 4}, {1, 3, 1, 2, 1}, {2, 2, 2, 2, 2}} {
		params := make([]Param, len(cards))
		for i, c := range cards {
			params[i] = Param{Name: fmt.Sprint("p", i), Card: c}
		}
		s, err := NewSpace(params...)
		if err != nil {
			t.Fatal(err)
		}
		odo := make(Point, len(cards))
		for i := 0; i < s.Size(); i++ {
			p := s.At(i)
			if !p.Equal(odo) {
				t.Fatalf("cards %v: At(%d) = %v, want %v", cards, i, p, odo)
			}
			if !s.Valid(p) {
				t.Fatalf("cards %v: At(%d) = %v is not valid", cards, i, p)
			}
			if got := s.Index(p); got != i {
				t.Fatalf("cards %v: Index(%v) = %d, want %d", cards, p, got, i)
			}
			for d := len(odo) - 1; d >= 0; d-- {
				if odo[d]++; odo[d] < cards[d] {
					break
				}
				odo[d] = 0
			}
		}
	}
}

func TestExhaustiveCoversSpace(t *testing.T) {
	s := space3(t)
	sess := NewSession(s, NewExhaustive(s))
	target := Point{5, 2, 7}
	f := quad(target)
	seen := map[string]int{}
	for {
		p, done := sess.Fetch()
		if done {
			if !p.Equal(target) {
				t.Errorf("best = %v, want %v", p, target)
			}
			break
		}
		seen[fmt.Sprint(p)]++
		sess.Report(f(p))
	}
	if len(seen) != s.Size() {
		t.Errorf("visited %d points, want %d", len(seen), s.Size())
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("point %s evaluated %d times", k, n)
		}
	}
	if sess.Evals() != s.Size() {
		t.Errorf("Evals = %d, want %d", sess.Evals(), s.Size())
	}
	if !sess.Converged() {
		t.Errorf("session must report convergence")
	}
}

func TestSessionBestTracksMinimum(t *testing.T) {
	s := space3(t)
	sess := NewSession(s, NewExhaustive(s))
	f := quad(Point{3, 1, 4})
	var minSeen = math.Inf(1)
	for {
		p, done := sess.Fetch()
		if done {
			break
		}
		v := f(p)
		if v < minSeen {
			minSeen = v
		}
		sess.Report(v)
	}
	_, perf, ok := sess.Best()
	if !ok || perf != minSeen {
		t.Errorf("Best perf = %v, want %v", perf, minSeen)
	}
}

func TestSessionProtocolPanics(t *testing.T) {
	s := space3(t)
	sess := NewSession(s, NewExhaustive(s))
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("Report-before-Fetch", func() { sess.Report(1) })
	if _, done := sess.Fetch(); done {
		t.Fatal("fresh exhaustive session cannot be done")
	}
	mustPanic("double Fetch", func() { sess.Fetch() })
}

func TestSessionConvergedKeepsBest(t *testing.T) {
	s := space3(t)
	sess := NewSession(s, NewRandom(s, 5, 1))
	f := quad(Point{0, 0, 0})
	for {
		p, done := sess.Fetch()
		if done {
			break
		}
		sess.Report(f(p))
	}
	b1, _ := sess.Fetch()
	b2, _ := sess.Fetch()
	if !b1.Equal(b2) {
		t.Errorf("converged session must return a stable best: %v vs %v", b1, b2)
	}
}

func TestNelderMeadFindsGoodPoint(t *testing.T) {
	s := space3(t)
	target := Point{4, 2, 6}
	f := quad(target)
	sess := NewSession(s, NewNelderMead(s, Point{6, 0, 8}, 0))
	best := drive(t, sess, f, 500)
	if f(best) > 4 { // within distance sqrt(3) of the optimum
		t.Errorf("NM best %v (f=%v) too far from target %v", best, f(best), target)
	}
	if sess.Evals() >= s.Size()/2 {
		t.Errorf("NM evaluated %d of %d points; should be far sparser", sess.Evals(), s.Size())
	}
}

func TestNelderMeadBudget(t *testing.T) {
	s := space3(t)
	nm := NewNelderMead(s, Point{0, 0, 0}, 10)
	sess := NewSession(s, nm)
	f := quad(Point{6, 3, 8})
	drive(t, sess, f, 200)
	if !nm.Converged() {
		t.Errorf("NM must converge once budget is spent")
	}
}

func TestNelderMeadDeterministic(t *testing.T) {
	run := func() Point {
		s := space3(t)
		sess := NewSession(s, NewNelderMead(s, Point{3, 3, 3}, 0))
		return drive(t, sess, quad(Point{1, 1, 1}), 500)
	}
	if a, b := run(), run(); !a.Equal(b) {
		t.Errorf("NM must be deterministic: %v vs %v", a, b)
	}
}

func TestPROFindsGoodPoint(t *testing.T) {
	s := space3(t)
	target := Point{2, 1, 3}
	f := quad(target)
	sess := NewSession(s, NewPRO(s, Point{6, 3, 8}, 0, 11))
	best := drive(t, sess, f, 1000)
	if f(best) > 6 {
		t.Errorf("PRO best %v (f=%v) too far from target %v", best, f(best), target)
	}
}

func TestRandomBudgetAndDeterminism(t *testing.T) {
	s := space3(t)
	mk := func(seed int64) []string {
		r := NewRandom(s, 20, seed)
		var keys []string
		for {
			p, ok := r.Next()
			if !ok {
				break
			}
			keys = append(keys, fmt.Sprint(p))
			r.Report(p, 0)
		}
		return keys
	}
	a, b := mk(5), mk(5)
	if len(a) != 20 {
		t.Errorf("random proposals = %d, want 20", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed must give same sequence")
		}
	}
	c := mk(6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds should give different sequences")
	}
}

// Property: every strategy only ever proposes valid lattice points, and the
// session's best matches the minimum of what was reported.
func TestStrategyValidityProperty(t *testing.T) {
	f := func(c1, c2, c3 uint8, seed int64, which uint8) bool {
		s, err := NewSpace(
			Param{"a", int(c1%9) + 1},
			Param{"b", int(c2%5) + 1},
			Param{"c", int(c3%12) + 1},
		)
		if err != nil {
			return false
		}
		var strat Strategy
		switch which % 5 {
		case 0:
			strat = NewExhaustive(s)
		case 1:
			strat = NewRandom(s, 25, seed)
		case 2:
			strat = NewNelderMead(s, Point{0, 0, 0}, 40)
		case 3:
			strat = NewCoordinateDescent(s, Point{0, 0, 0}, 40)
		default:
			strat = NewPRO(s, Point{0, 0, 0}, 40, seed)
		}
		sess := NewSession(s, strat)
		obj := quad(Point{int(c1%9) / 2, int(c2%5) / 2, int(c3%12) / 2})
		minSeen := math.Inf(1)
		for i := 0; i < s.Size()+200; i++ {
			p, done := sess.Fetch()
			if !s.Valid(p) {
				return false
			}
			if done {
				break
			}
			v := obj(p)
			if v < minSeen {
				minSeen = v
			}
			sess.Report(v)
		}
		_, perf, ok := sess.Best()
		return ok && perf == minSeen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
