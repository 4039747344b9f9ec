package scenario

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// Runner dispatches simulations onto a worker pool with caching; the
// engine never runs a simulation itself. experiments.Session is the
// production implementation: it keys its singleflight cache by
// (workload, core.Config.Canonical()), so any two scenario points — or a
// scenario point and a figure — that describe the same machine share one
// simulation.
//
// StartRunCtx takes the requesting sweep's context: a cell whose
// interested requesters have all canceled before it starts must never
// be simulated, while a cell that is already running finishes and
// populates the shared cache. The context also carries the requester
// identity for fair scheduling (sched.WithRequester): the engine threads
// it unchanged into every dispatch — grid cells and fairness references
// (core.Reference) alike — so the runner's queue can attribute all of a
// sweep's work to the client that asked for it.
type Runner interface {
	// BaseConfig returns the configuration scenario deltas apply onto.
	BaseConfig() core.Config
	// StartRunCtx schedules (or joins) one simulation without blocking
	// and returns its pending call.
	StartRunCtx(ctx context.Context, w workload.Workload, cfg core.Config) *simcache.Call[*core.Result]
}

// startReference schedules (or joins) benchmark b's single-thread
// fairness reference (core.Reference) on cfg's machine.
func startReference(ctx context.Context, r Runner, b string, cfg core.Config) *simcache.Call[*core.Result] {
	w, ref := core.Reference(cfg, b)
	return r.StartRunCtx(ctx, w, ref)
}

// metric is one per-cell reduction. compute receives the cell's full
// machine configuration so reference-relative metrics (fairness) measure
// their single-thread baseline on the same machine the SMT run used.
type metric struct {
	name string
	// needsReference marks metrics that read single-thread references.
	needsReference bool
	compute        func(ctx context.Context, r Runner, w workload.Workload, cfg core.Config, res *core.Result) (float64, error)
}

// metricTable lists the available reductions in documentation order.
var metricTable = []metric{
	{name: "throughput", compute: func(_ context.Context, _ Runner, _ workload.Workload, _ core.Config, res *core.Result) (float64, error) {
		return metrics.Throughput(res.IPCs()), nil
	}},
	{name: "fairness", needsReference: true, compute: func(ctx context.Context, r Runner, w workload.Workload, cfg core.Config, res *core.Result) (float64, error) {
		stv := make([]float64, 0, len(w.Benchmarks))
		for _, b := range w.Benchmarks {
			ref, err := startReference(ctx, r, b, cfg).WaitCtx(ctx)
			if err != nil {
				return 0, err
			}
			stv = append(stv, ref.Threads[0].IPC)
		}
		return metrics.Fairness(stv, res.IPCs()), nil
	}},
	{name: "ed2", compute: func(_ context.Context, _ Runner, _ workload.Workload, _ core.Config, res *core.Result) (float64, error) {
		return metrics.ED2(res.ExecutedTotal, res.Cycles, res.CommittedTotal), nil
	}},
	{name: "cycles", compute: func(_ context.Context, _ Runner, _ workload.Workload, _ core.Config, res *core.Result) (float64, error) {
		return float64(res.Cycles), nil
	}},
	{name: "committed", compute: func(_ context.Context, _ Runner, _ workload.Workload, _ core.Config, res *core.Result) (float64, error) {
		return float64(res.CommittedTotal), nil
	}},
	{name: "executed", compute: func(_ context.Context, _ Runner, _ workload.Workload, _ core.Config, res *core.Result) (float64, error) {
		return float64(res.ExecutedTotal), nil
	}},
	{name: "l2mpki", compute: func(_ context.Context, _ Runner, _ workload.Workload, _ core.Config, res *core.Result) (float64, error) {
		if res.CommittedTotal == 0 {
			return 0, nil
		}
		var misses uint64
		for i := range res.Threads {
			misses += res.Threads[i].L2MissLoads
		}
		return 1000 * float64(misses) / float64(res.CommittedTotal), nil
	}},
	{name: "prefetches", compute: func(_ context.Context, _ Runner, _ workload.Workload, _ core.Config, res *core.Result) (float64, error) {
		var n uint64
		for i := range res.Threads {
			n += res.Threads[i].PrefetchesIssued
		}
		return float64(n), nil
	}},
	{name: "runahead-episodes", compute: func(_ context.Context, _ Runner, _ workload.Workload, _ core.Config, res *core.Result) (float64, error) {
		var n uint64
		for i := range res.Threads {
			n += res.Threads[i].RunaheadEpisodes
		}
		return float64(n), nil
	}},
}

// metricByName looks a metric up.
func metricByName(name string) (metric, bool) {
	for _, m := range metricTable {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// MetricNames lists the valid metric names in documentation order.
func MetricNames() []string {
	out := make([]string, len(metricTable))
	for i, m := range metricTable {
		out[i] = m.name
	}
	return out
}

// Row is one reduced cell of the grid: one workload under one expanded
// configuration.
type Row struct {
	// Workload is the canonical workload name.
	Workload string
	// Labels holds the axis-point labels, parallel to ResultSet.Axes.
	Labels []string
	// Fingerprint identifies the full machine configuration.
	Fingerprint string
	// Values holds the metric values, parallel to ResultSet.Metrics.
	Values []float64
	// Truncated reports the simulation hit its cycle limit before FAME
	// coverage completed (the cell's values are then lower bounds).
	Truncated bool
}

// ResultSet is the engine's structured output: the reduced rows plus the
// raw grid for callers (the figure reductions) that need per-thread data.
type ResultSet struct {
	// Name and Description echo the spec.
	Name        string
	Description string
	// Axes and Metrics name the label and value columns of every Row.
	Axes    []string
	Metrics []string
	// Workloads and Combos are the grid's two dimensions, in run order.
	Workloads []workload.Workload
	Combos    []Combo
	// Rows holds one reduced row per grid cell, workload-major in
	// Workloads×Combos order.
	Rows []Row
	raw  [][]*core.Result
}

// Result returns the raw simulation result of one grid cell.
func (rs *ResultSet) Result(wi, ci int) *core.Result { return rs.raw[wi][ci] }

// Value returns one reduced metric value by grid cell and metric index.
func (rs *ResultSet) Value(wi, ci, mi int) float64 {
	return rs.Rows[wi*len(rs.Combos)+ci].Values[mi]
}

// ExecuteStreamCtx expands the spec's grid, dispatches every simulation
// onto the runner's pool, and reduces the results in a fixed order — so
// output is bit-identical for any worker count. When emit is non-nil it
// receives each reduced Row in fixed grid order (workload-major) as soon
// as the row's simulation completes, before the full set is assembled —
// the smtsimd daemon uses it to stream NDJSON while later cells are still
// simulating. A non-nil error from emit aborts the sweep.
//
// Once ctx is done the sweep returns ctx's error promptly, cells not yet
// started are never simulated, and cells already running finish into the
// runner's cache; rows already emitted stand.
func ExecuteStreamCtx(ctx context.Context, r Runner, sp *Spec, emit func(Row) error) (*ResultSet, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
	}
	ws, err := sp.Workloads.Select()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
	}
	combos, err := sp.Combos(r.BaseConfig())
	if err != nil {
		return nil, err
	}
	mets := make([]metric, 0, len(sp.metrics()))
	needRef := false
	for _, name := range sp.metrics() {
		m, _ := metricByName(name) // Validate vetted the names
		mets = append(mets, m)
		needRef = needRef || m.needsReference
	}

	// Dispatch the whole grid (plus references, when a metric reads them)
	// before collecting anything, so the pool stays saturated. Every cell
	// is registered under the sweep's context: whatever cancellation
	// leaves unstarted is never simulated.
	calls := make([][]*simcache.Call[*core.Result], len(ws))
	for wi, w := range ws {
		calls[wi] = make([]*simcache.Call[*core.Result], len(combos))
		for ci, combo := range combos {
			calls[wi][ci] = r.StartRunCtx(ctx, w, combo.Config)
		}
		if needRef {
			for _, combo := range combos {
				for _, b := range w.Benchmarks {
					startReference(ctx, r, b, combo.Config)
				}
			}
		}
	}

	rs := &ResultSet{
		Name:        sp.Name,
		Description: sp.Description,
		Axes:        sp.AxisNames(),
		Metrics:     sp.metrics(),
		Workloads:   ws,
		Combos:      combos,
		raw:         make([][]*core.Result, len(ws)),
	}
	for wi, w := range ws {
		rs.raw[wi] = make([]*core.Result, len(combos))
		for ci, combo := range combos {
			res, err := calls[wi][ci].WaitCtx(ctx)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
			}
			rs.raw[wi][ci] = res
			row := Row{
				Workload:    w.Name(),
				Labels:      combo.Labels,
				Fingerprint: combo.Fingerprint,
				Values:      make([]float64, len(mets)),
				Truncated:   res.Truncated,
			}
			for mi, m := range mets {
				v, err := m.compute(ctx, r, w, combo.Config, res)
				if err != nil {
					return nil, fmt.Errorf("scenario %s: metric %s: %w", sp.Name, m.name, err)
				}
				row.Values[mi] = v
			}
			if emit != nil {
				if err := emit(row); err != nil {
					return nil, fmt.Errorf("scenario %s: emit: %w", sp.Name, err)
				}
			}
			rs.Rows = append(rs.Rows, row)
		}
	}
	return rs, nil
}

// Dataset flattens the result set for the report emitters: one column for
// the workload, one per axis, one per metric, then the truncation flag
// and the configuration fingerprint.
func (rs *ResultSet) Dataset() *report.Dataset {
	cols := append([]string{"workload"}, rs.Axes...)
	cols = append(cols, rs.Metrics...)
	cols = append(cols, "truncated", "config")
	d := report.NewDataset(rs.Name, cols...)
	d.Description = rs.Description
	for _, row := range rs.Rows {
		cells := make([]any, 0, len(cols))
		cells = append(cells, row.Workload)
		for _, l := range row.Labels {
			cells = append(cells, l)
		}
		for _, v := range row.Values {
			cells = append(cells, v)
		}
		cells = append(cells, row.Truncated, row.Fingerprint)
		d.AddRow(cells...)
	}
	return d
}

// String renders the result set as an aligned text table.
func (rs *ResultSet) String() string { return rs.Dataset().String() }

// WriteJSON emits the result set as one JSON document.
func (rs *ResultSet) WriteJSON(w io.Writer) error { return rs.Dataset().WriteJSON(w) }

// WriteCSV emits the result set as CSV.
func (rs *ResultSet) WriteCSV(w io.Writer) error { return rs.Dataset().WriteCSV(w) }

// Emit writes the result set in the named format ("table", "json",
// "csv", "ndjson"; empty falls back to the spec default resolved by the
// caller).
func (rs *ResultSet) Emit(w io.Writer, format string) error {
	switch format {
	case "", "table":
		_, err := io.WriteString(w, rs.String())
		return err
	case "json":
		return rs.WriteJSON(w)
	case "csv":
		return rs.WriteCSV(w)
	case "ndjson":
		return rs.WriteNDJSON(w)
	}
	return fmt.Errorf("scenario: unknown format %q (valid: table, json, csv, ndjson)", format)
}
