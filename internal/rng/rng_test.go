package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %x != %x", i, av, bv)
		}
	}
}

func TestNewStringDeterminism(t *testing.T) {
	a, b := NewString("mcf"), NewString("mcf")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same string produced different streams")
	}
	c, d := NewString("mcf"), NewString("art")
	if c.Uint64() == d.Uint64() {
		t.Fatal("different strings produced identical first values (suspicious)")
	}
}

func TestSeedsDecorrelated(t *testing.T) {
	// Adjacent seeds must not produce obviously correlated streams.
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical values out of 1000", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	for _, n := range []int{1, 2, 3, 10, 64, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared-ish sanity check: 16 buckets, 160k draws, each bucket
	// should be within 5% of expectation.
	s := New(99)
	const buckets, draws = 16, 160000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	expect := draws / buckets
	for b, c := range counts {
		if math.Abs(float64(c-expect)) > 0.05*float64(expect) {
			t.Fatalf("bucket %d count %d deviates >5%% from %d", b, c, expect)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
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
		if s.Bool(-1) {
			t.Fatal("Bool(-1) returned true")
		}
		if !s.Bool(2) {
			t.Fatal("Bool(2) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) empirical rate %v", p)
	}
}

func TestGeometricMean(t *testing.T) {
	// Mean of the "failures before success" geometric is (1-p)/p.
	s := New(13)
	for _, p := range []float64{0.1, 0.3, 0.5, 0.9} {
		var sum float64
		const n = 100000
		for i := 0; i < n; i++ {
			sum += float64(s.Geometric(p))
		}
		want := (1 - p) / p
		got := sum / n
		if math.Abs(got-want) > 0.1*want+0.02 {
			t.Fatalf("Geometric(%v) mean %v, want ~%v", p, got, want)
		}
	}
}

func TestGeometricEdge(t *testing.T) {
	s := New(17)
	for i := 0; i < 100; i++ {
		if v := s.Geometric(1); v != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", v)
		}
	}
}

func TestSplitDecorrelates(t *testing.T) {
	parent := New(21)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams matched %d times", same)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	// Must not panic and must produce a stream.
	prev := s.Uint64()
	for i := 0; i < 10; i++ {
		v := s.Uint64()
		if v == prev {
			t.Fatal("zero-value source stuck")
		}
		prev = v
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= s.Intn(64)
	}
	_ = sink
}
