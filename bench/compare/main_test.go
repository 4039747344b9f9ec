package main

import (
	"io"
	"math"
	"testing"
)

func scaled(base []float64, f float64) []float64 {
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v * f
	}
	return out
}

// ten runs with a 2% interquartile spread around 100
var steady = []float64{99, 100, 101, 98, 102, 100, 99, 101, 100, 100}

func TestJudgeVerdicts(t *testing.T) {
	lower := spec{bound: 0.10, endToEnd: true}
	higher := spec{higher: true, bound: 0.10, endToEnd: true}
	layer := spec{bound: math.NaN()}
	noisy := []float64{70, 130, 90, 110, 100, 60, 140, 100, 95, 105}
	for _, tc := range []struct {
		name           string
		s              spec
		parent, change []float64
		want           string
	}{
		{"faster on every pair", lower, steady, scaled(steady, 0.9), "improved"},
		{"same code", lower, steady, steady, "unchanged"},
		{"slower within the bound", lower, steady, scaled(steady, 1.05), "unchanged"},
		{"slower beyond the bound", lower, steady, scaled(steady, 1.2), "worse"},
		{"higher is better", higher, steady, scaled(steady, 0.8), "worse"},
		{"spread wider than the bound", lower, noisy, scaled(noisy, 1.2), "unresolved"},
		{"noisy but every change run better", lower, noisy, scaled(steady, 0.5), "improved"},
		{"per-layer slower on every pair", layer, steady, scaled(steady, 1.2), "worse"},
		{"per-layer slightly slower", layer, steady, scaled(steady, 1.005), "unchanged"},
	} {
		if got := judge(tc.s, tc.parent, tc.change).result; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	v := judge(lower, steady, scaled(steady, 0.9))
	if v.wins != 10 || v.pairs != 10 {
		t.Errorf("wins %d of %d pairs, want 10 of 10", v.wins, v.pairs)
	}
}

func runsOf(workload string, metric string, vals []float64, failed int) []run {
	var out []run
	for i, v := range vals {
		r := run{Workload: workload, Seed: uint64(i + 1), Attempted: 10, Failed: failed}
		r.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{metric: {v}}
		out = append(out, r)
	}
	return out
}

func TestCompareGate(t *testing.T) {
	specs := map[string]spec{"op_p50_ms": {bound: 0.1, endToEnd: true}, "mem.access_ns": {bound: math.NaN()}}
	same := runsOf("sim-mem", "op_p50_ms", steady, 0)
	if compare(io.Discard, specs, same, same) {
		t.Error("identical sets failed the gate")
	}
	if !compare(io.Discard, specs, same, runsOf("sim-mem", "op_p50_ms", scaled(steady, 1.3), 0)) {
		t.Error("an end-to-end regression passed the gate")
	}
	if !compare(io.Discard, specs, same, runsOf("sim-mem", "op_p50_ms", steady, 1)) {
		t.Error("more failed operations passed the gate")
	}
	if compare(io.Discard, specs, runsOf("sim-mem", "mem.access_ns", steady, 0), runsOf("sim-mem", "mem.access_ns", scaled(steady, 1.3), 0)) {
		t.Error("a per-layer metric failed the gate")
	}
}
