package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	// Children are deterministic functions of (parent state, id)...
	p2 := New(7)
	d1 := p2.Fork(1)
	if c1.Uint64() != d1.Uint64() {
		t.Error("fork not deterministic")
	}
	// ...and differ from each other.
	if c1.Uint64() == c2.Uint64() {
		t.Error("sibling forks produce identical draws")
	}
}

func TestIntnRange(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(99)
	var sum float64
	const n = 100_000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(5)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	// p=0.3 should be roughly 30%.
	hits := 0
	for i := 0; i < 100_000; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / 100_000; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}

func TestExpMean(t *testing.T) {
	s := New(11)
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		v := s.Exp(40)
		if v < 0 {
			t.Fatalf("Exp < 0: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-40) > 1 {
		t.Errorf("Exp(40) mean = %v", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(13)
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		v := s.Geometric(25)
		if v < 1 {
			t.Fatalf("Geometric < 1: %v", v)
		}
		sum += float64(v)
	}
	if mean := sum / n; math.Abs(mean-25) > 1 {
		t.Errorf("Geometric(25) mean = %v", mean)
	}
	if got := s.Geometric(0.5); got != 1 {
		t.Errorf("Geometric(<1) = %d, want 1", got)
	}
}

// geometricFormula is Source.Geometric as it was before the distribution
// precomputed its logarithm: the reference Draw must match bit for bit.
func geometricFormula(s *Source, mean float64) int64 {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	u := s.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	n := int64(math.Log(1-u)/math.Log(1-p)) + 1
	if n < 1 {
		n = 1
	}
	return n
}

func TestGeometricDrawMatchesFormula(t *testing.T) {
	means := []float64{-3, 0, 0.5, 1, math.Nextafter(1, 2), 1.5, 2, 3.7, 25, 1000 / 7.0, 1e3, 1e6, 1e12}
	for seed := uint64(0); seed < 50; seed++ {
		for _, mean := range means {
			g := NewGeometric(mean)
			a, b, c := New(seed), New(seed), New(seed)
			for i := 0; i < 200; i++ {
				want := geometricFormula(a, mean)
				if got := g.Draw(b); got != want {
					t.Fatalf("seed %d mean %v draw %d: Draw = %d, formula %d", seed, mean, i, got, want)
				}
				if got := c.Geometric(mean); got != want {
					t.Fatalf("seed %d mean %v draw %d: Geometric = %d, formula %d", seed, mean, i, got, want)
				}
			}
			// Equal draws must leave the three streams in step, so a
			// degenerate mean consumes nothing either way.
			if x := a.Uint64(); b.Uint64() != x || c.Uint64() != x {
				t.Fatalf("seed %d mean %v: streams diverged", seed, mean)
			}
		}
	}
}

func TestNorm(t *testing.T) {
	s := New(17)
	var sum, sq float64
	const n = 200_000
	for i := 0; i < n; i++ {
		v := s.Norm(10, 3)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 || math.Abs(std-3) > 0.1 {
		t.Errorf("Norm(10,3): mean=%v std=%v", mean, std)
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
