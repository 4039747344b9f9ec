package core

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestCalibrationShapes is the end-to-end shape check against the paper's
// Figures 1 and 2, asserted at the group-average level the paper reports
// (single workloads can legitimately deviate — e.g. FLUSH buys raw
// throughput on art+gzip by starving art, which fairness then exposes).
// A subsample of each group keeps the test fast; cmd/experiments runs the
// full suite.
func TestCalibrationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	cfg := DefaultConfig()
	cfg.TraceLen = 10_000
	cfg.MaxCycles = 6_000_000
	// Single-thread references (IPC_ST of the fairness metric), one
	// reference run per benchmark.
	ref := map[string]float64{}

	pols := []PolicyKind{PolicyICount, PolicySTALL, PolicyFLUSH, PolicyDCRA, PolicyHillClimbing, PolicyRaT}
	sample := []int{0, 3, 6, 9} // four workloads per group

	type agg struct{ thru, fair map[PolicyKind]float64 }
	groups := map[string]agg{}
	for _, g := range []string{"ILP2", "MIX2", "MEM2"} {
		a := agg{thru: map[PolicyKind]float64{}, fair: map[PolicyKind]float64{}}
		ws := workload.MustByGroup(g)
		for _, p := range pols {
			var thrus, fairs []float64
			for _, idx := range sample {
				if idx >= len(ws) {
					continue
				}
				c := cfg
				c.Policy = p
				res, err := Run(c, ws[idx])
				if err != nil {
					t.Fatal(err)
				}
				if res.Truncated {
					t.Errorf("%s/%s truncated", ws[idx].Name(), p)
				}
				var stv []float64
				for _, b := range ws[idx].Benchmarks {
					if _, ok := ref[b]; !ok {
						st, err := RunSingle(cfg, b)
						if err != nil {
							t.Fatal(err)
						}
						ref[b] = st.Threads[0].IPC
					}
					stv = append(stv, ref[b])
				}
				thrus = append(thrus, metrics.Throughput(res.IPCs()))
				fairs = append(fairs, metrics.Fairness(stv, res.IPCs()))
			}
			a.thru[p] = avg(thrus)
			a.fair[p] = avg(fairs)
			t.Logf("%-5s %-14s thru=%.3f fair=%.3f", g, p, a.thru[p], a.fair[p])
		}
		groups[g] = a
	}

	mem, mix := groups["MEM2"], groups["MIX2"]

	// Figure 1a/2a shapes (throughput).
	if mem.thru[PolicyRaT] <= mem.thru[PolicyICount] {
		t.Errorf("MEM2: RaT throughput (%.3f) must beat ICOUNT (%.3f)",
			mem.thru[PolicyRaT], mem.thru[PolicyICount])
	}
	if mem.thru[PolicyRaT] <= mem.thru[PolicySTALL] {
		t.Errorf("MEM2: RaT throughput (%.3f) must beat STALL (%.3f)",
			mem.thru[PolicyRaT], mem.thru[PolicySTALL])
	}
	if mem.thru[PolicyRaT] <= 1.5*mem.thru[PolicyFLUSH] {
		t.Errorf("MEM2: RaT (%.3f) must beat FLUSH (%.3f) by a wide margin",
			mem.thru[PolicyRaT], mem.thru[PolicyFLUSH])
	}
	if mem.thru[PolicyRaT] <= mem.thru[PolicyDCRA] || mem.thru[PolicyRaT] <= mem.thru[PolicyHillClimbing] {
		t.Errorf("MEM2: RaT (%.3f) must beat DCRA (%.3f) and Hill (%.3f)",
			mem.thru[PolicyRaT], mem.thru[PolicyDCRA], mem.thru[PolicyHillClimbing])
	}
	if mix.thru[PolicyRaT] <= mix.thru[PolicyICount] {
		t.Errorf("MIX2: RaT throughput (%.3f) must beat ICOUNT (%.3f)",
			mix.thru[PolicyRaT], mix.thru[PolicyICount])
	}

	// Figure 1b/2b shapes (fairness): RaT best; static policies sacrifice
	// fairness on memory-bound workloads.
	for _, g := range []string{"MIX2", "MEM2"} {
		a := groups[g]
		for _, p := range pols[:5] {
			if a.fair[PolicyRaT] <= a.fair[p] {
				t.Errorf("%s: RaT fairness (%.3f) must beat %s (%.3f)",
					g, a.fair[PolicyRaT], p, a.fair[p])
			}
		}
	}
	if mem.fair[PolicyFLUSH] >= mem.fair[PolicyICount] {
		t.Errorf("MEM2: FLUSH fairness (%.3f) should fall below ICOUNT (%.3f)",
			mem.fair[PolicyFLUSH], mem.fair[PolicyICount])
	}

	// ILP workloads: policies within a tight band (no pathology to fix).
	ilp := groups["ILP2"]
	for _, p := range pols {
		if ilp.thru[p] < 0.85*ilp.thru[PolicyICount] {
			t.Errorf("ILP2: %s throughput (%.3f) collapsed vs ICOUNT (%.3f)",
				p, ilp.thru[p], ilp.thru[PolicyICount])
		}
	}
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
