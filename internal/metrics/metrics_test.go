package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestThroughput(t *testing.T) {
	if Throughput(nil) != 0 {
		t.Fatal("empty throughput")
	}
	if got := Throughput([]float64{1, 3}); got != 2 {
		t.Fatalf("throughput = %v", got)
	}
}

func TestFairnessPerfectSharing(t *testing.T) {
	// Every thread at single-thread speed: fairness exactly 1.
	st := []float64{2, 0.5}
	if got := Fairness(st, st); math.Abs(got-1) > 1e-12 {
		t.Fatalf("fairness = %v, want 1", got)
	}
}

func TestFairnessHalfSpeed(t *testing.T) {
	st := []float64{2, 1}
	mt := []float64{1, 0.5}
	if got := Fairness(st, mt); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("fairness = %v, want 0.5", got)
	}
}

func TestFairnessPunishesStarvation(t *testing.T) {
	st := []float64{2, 2}
	balanced := Fairness(st, []float64{1, 1})     // both at half speed
	starved := Fairness(st, []float64{1.9, 0.05}) // one starved
	if starved >= balanced {
		t.Fatalf("starved fairness %v >= balanced %v", starved, balanced)
	}
}

func TestFairnessDegenerate(t *testing.T) {
	if Fairness(nil, nil) != 0 {
		t.Fatal("empty fairness")
	}
	if Fairness([]float64{1}, []float64{1, 2}) != 0 {
		t.Fatal("mismatched lengths")
	}
	if Fairness([]float64{1, 0}, []float64{1, 1}) != 0 {
		t.Fatal("zero ST IPC")
	}
}

func TestFairnessBounds(t *testing.T) {
	// Property: with MT <= ST per thread (the physical case), fairness lies
	// in (0, 1]; and fairness never exceeds the max speedup.
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw)
		if n > 8 {
			n = 8
		}
		st := make([]float64, n)
		mt := make([]float64, n)
		for i := 0; i < n; i++ {
			st[i] = float64(raw[i]%1000) + 1
			mt[i] = st[i] / (1 + float64(raw[i]%7)) // slowdown 1..7x
		}
		got := Fairness(st, mt)
		return got > 0 && got <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestED2(t *testing.T) {
	// 1000 executed, CPI 2 -> 4000.
	if got := ED2(1000, 2000, 1000); got != 4000 {
		t.Fatalf("ED2 = %v", got)
	}
	if ED2(1000, 0, 10) != 0 || ED2(1000, 10, 0) != 0 {
		t.Fatal("degenerate ED2 not 0")
	}
}

func TestED2PenalizesExtraWork(t *testing.T) {
	// Same delay, more executed instructions -> worse (higher) ED2.
	lean := ED2(1000, 2000, 1000)
	wasteful := ED2(2000, 2000, 1000)
	if wasteful <= lean {
		t.Fatal("extra executed work did not raise ED2")
	}
}

func TestED2RewardsSpeed(t *testing.T) {
	// Same work, fewer cycles -> better (lower) ED2, quadratically.
	slow := ED2(1000, 4000, 1000)
	fast := ED2(1000, 2000, 1000)
	if math.Abs(slow/fast-4) > 1e-9 {
		t.Fatalf("CPI halving changed ED2 by %vx, want 4x", slow/fast)
	}
}

func TestNormalize(t *testing.T) {
	if Normalize(1, 0) != 0 {
		t.Fatal("divide by zero")
	}
	if Normalize(3, 4) != 0.75 {
		t.Fatal("normalize")
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}
