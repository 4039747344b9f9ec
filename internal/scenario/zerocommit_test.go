package scenario

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// stubRunner satisfies Runner for metric-computation tests: every run it
// is asked for is already complete, one thread at IPC 1.5.
type stubRunner struct{}

func (stubRunner) BaseConfig() core.Config { return core.DefaultConfig() }
func (stubRunner) StartRunCtx(ctx context.Context, _ workload.Workload, _ core.Config) *simcache.Call[*core.Result] {
	c, _ := simcache.New[int, *core.Result](0, 0, nil).BeginCtx(ctx, 0)
	c.Fulfill(&core.Result{Threads: []core.ThreadResult{{IPC: 1.5}}}, nil)
	return c
}

// TestZeroCommitMetricsFiniteEverywhere is the divide-by-zero
// regression: a truncated run that committed nothing (the degenerate
// corner a tiny trace length or cycle budget approaches) must reduce to
// finite metric values — l2mpki and ed2 divide by CommittedTotal, and a
// single ±Inf or NaN would make encoding/json fail the entire emit with
// "json: unsupported value". Every metric and every output format must
// survive such a row.
func TestZeroCommitMetricsFiniteEverywhere(t *testing.T) {
	res := &core.Result{
		Workload:  "custom/art+mcf",
		Cycles:    64,
		Truncated: true,
		Threads: []core.ThreadResult{
			{Benchmark: "art", L2MissLoads: 7},
			{Benchmark: "mcf"},
		},
		// CommittedTotal and ExecutedTotal stay zero: nothing retired.
	}
	w := workload.Workload{Group: "custom", Benchmarks: []string{"art", "mcf"}}
	ctx := context.Background()
	cfg := core.DefaultConfig()

	names := MetricNames()
	values := make([]float64, 0, len(names))
	for _, m := range metricTable {
		v, err := m.compute(ctx, stubRunner{}, w, cfg, res)
		if err != nil {
			t.Fatalf("metric %s: %v", m.name, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v on a zero-commit result, want finite", m.name, v)
		}
		values = append(values, v)
	}

	rs := &ResultSet{
		Name:    "zero-commit",
		Axes:    []string{"x"},
		Metrics: names,
		Rows: []Row{{
			Workload:    w.Name(),
			Labels:      []string{"p0"},
			Fingerprint: "cfg-zero",
			Values:      values,
			Truncated:   true,
		}},
	}
	for _, format := range []string{"table", "json", "csv", "ndjson"} {
		var buf bytes.Buffer
		if err := rs.Emit(&buf, format); err != nil {
			t.Errorf("emit %s failed on zero-commit row: %v", format, err)
		}
		if buf.Len() == 0 {
			t.Errorf("emit %s wrote nothing", format)
		}
	}
}
