package policy

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/trace"
)

func TestMLPAwareWindowOpensAndGates(t *testing.T) {
	m := NewMLPAware()
	c, err := pipeline.New(pipeline.DefaultConfig(),
		[]*trace.Trace{memTrace(3000)}, m)
	if err != nil {
		t.Fatal(err)
	}
	c.WarmupICache()
	c.SetParanoid(true)
	gated := false
	for i := 0; i < 20000; i++ {
		c.Step()
		if m.active[0] && c.PendingL2Miss(0) && c.FetchCursor(0) > m.gateSeq[0] {
			// The policy must be excluding this thread from fetch.
			order := m.FetchPriority(c, nil)
			for _, tid := range order {
				if tid == 0 {
					t.Fatal("thread past its MLP window still fetching")
				}
			}
			gated = true
		}
	}
	if !gated {
		t.Log("gate never observed (window may always cover the cluster); acceptable")
	}
	if c.Committed(0) == 0 {
		t.Fatal("starved under MLP-aware fetch")
	}
}

func TestMLPAwareTrainsPredictor(t *testing.T) {
	m := NewMLPAware()
	c, err := pipeline.New(pipeline.DefaultConfig(),
		[]*trace.Trace{memTrace(3000)}, m)
	if err != nil {
		t.Fatal(err)
	}
	c.WarmupICache()
	for i := 0; i < 30000; i++ {
		c.Step()
	}
	if len(m.table) == 0 {
		t.Fatal("MLP predictor never trained")
	}
	for pc, span := range m.table {
		if span > maxSpan {
			t.Fatalf("PC %#x trained beyond the hardware bound: %d", pc, span)
		}
	}
}

func TestMLPAwareBetweenStallAndUnbounded(t *testing.T) {
	// On a miss-clustered trace, MLP-aware fetch must beat plain STALL
	// (it exposes the cluster) — the reason the related work exists.
	traces := func() []*trace.Trace { return []*trace.Trace{memTrace(4000)} }
	stall := runCore(t, Stall{}, traces(), 30000)
	mlp := runCore(t, NewMLPAware(), traces(), 30000)
	if mlp.Committed(0) <= stall.Committed(0) {
		t.Fatalf("MLP-aware (%d) did not beat STALL (%d)",
			mlp.Committed(0), stall.Committed(0))
	}
}
