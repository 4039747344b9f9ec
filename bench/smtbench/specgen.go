package main

import (
	"fmt"
	"math/rand"

	"repro/internal/scenario"
)

// Serve workload specs: two ad-hoc 2-thread workloads crossed with one
// 3-point axis, so 6 grid cells per spec.
const (
	specCells = 6
	// coldTraceLen is the trace length of serve-cold's specs, whose cells
	// are all simulated in the timed phase. The primed specs of serve-warm
	// and serve-disk are only simulated outside it, so shorter traces keep
	// their set-up and checks short.
	coldTraceLen   = 3000
	primedTraceLen = 1000
)

// specBenches is the benchmark menu of generated specs, memory-bound and
// compute-bound SPEC programs alternating, so that the pairs genSpec cuts
// from it mix both kinds.
var specBenches = []string{"art", "gzip", "mcf", "bzip2", "swim", "gcc", "twolf", "crafty", "equake", "vpr"}

// replyFormats are the response formats the daemon serves.
var replyFormats = []string{"ndjson", "json", "csv", "table"}

// genSpec returns spec index of the run with the given seed, on traces of
// the given length. It is a pure function of its arguments: the request
// path and the verification path each call it.
//
// The mix is fixed so that a run's cost depends little on the seed: every
// 5 consecutive specs use each benchmark of specBenches exactly twice, and
// the axis kind cycles through register file, ROB, L2 latency and policy.
// The seed draws the knob values and the simulation seed, which sets the
// generated traces; every spec of a run has its own simulation seed, so no
// two specs share a grid cell.
func genSpec(seed uint64, index, traceLen int) *scenario.Spec {
	bench := func(k int) string { return specBenches[(4*index+k)%len(specBenches)] }
	r := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(index)))

	tl := traceLen
	mc := uint64(2_000_000)
	simSeed := seed*1_000_000 + uint64(index) + 1
	sp := &scenario.Spec{
		Name: fmt.Sprintf("bench-%d-%d", seed, index),
		Workloads: scenario.WorkloadSpec{Adhoc: []string{
			"A/" + bench(0) + "+" + bench(1),
			"B/" + bench(2) + "+" + bench(3),
		}},
		Base:    scenario.Delta{TraceLen: &tl, Seed: &simSeed, MaxCycles: &mc},
		Metrics: []string{"throughput", "l2mpki"},
	}
	axis := scenario.Axis{Name: "x"}
	add := func(label string, d scenario.Delta) {
		axis.Points = append(axis.Points, scenario.Point{Label: label, Delta: d})
	}
	switch index % 4 {
	case 0:
		for _, v := range []int{96 + 32*r.Intn(3), 224, 320} {
			add(fmt.Sprintf("regs%d", v), scenario.Delta{Regs: &v})
		}
	case 1:
		for _, v := range []int{64 + 32*r.Intn(3), 160, 256} {
			add(fmt.Sprintf("rob%d", v), scenario.Delta{ROBSize: &v})
		}
	case 2:
		for _, v := range []uint64{uint64(10 + r.Intn(8)), 24, 30} {
			add(fmt.Sprintf("l2lat%d", v), scenario.Delta{L2Lat: &v})
		}
	case 3:
		third := []string{"STALL", "DCRA", "FLUSH"}[(index/4)%3]
		for _, v := range []string{"ICOUNT", "RaT", third} {
			add(v, scenario.Delta{Policy: &v})
		}
	}
	sp.Axes = []scenario.Axis{axis}
	return sp
}
