package stats

import "testing"

func TestCounter(t *testing.T) {
	var c Counter
	for i := 0; i < 42; i++ {
		c.Inc()
	}
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
}

func TestRunningMean(t *testing.T) {
	var m RunningMean
	if m.Count() != 0 || m.Sum() != 0 {
		t.Fatal("empty mean must have no samples")
	}
	for i := 1; i <= 100; i++ {
		m.Observe(float64(i))
	}
	if m.Sum() != 5050 || m.Count() != 100 {
		t.Fatalf("sum = %v, count = %d, want 5050 over 100", m.Sum(), m.Count())
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}
