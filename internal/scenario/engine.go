package scenario

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// Runner dispatches simulations onto a worker pool with caching; the
// engine never runs a simulation itself. experiments.Session is the
// production implementation: it keys its singleflight cache by
// (workload name, core.Config value) in memory and by the SHA-256 of
// (workload, core.Config.Canonical()) on disk, so any two scenario
// points — or a scenario point and a figure — that describe the same
// machine share one simulation.
//
// StartRunCtx takes the requesting sweep's context: a cell whose
// interested requesters have all canceled before it starts must never
// be simulated, while a cell that is already running finishes and
// populates the shared cache. The context also carries the requester
// identity for fair scheduling (sched.WithRequester): the engine threads
// it unchanged into every dispatch — grid cells and fairness references
// (core.Reference) alike — so the runner's queue can attribute all of a
// sweep's work to the client that asked for it.
//
// NewPlan reads BaseConfig once per request; ExecuteStreamCtx then only
// calls StartRunCtx, once per grid cell and per fairness reference, and
// checks each call's Ready to emit finished rows between workloads and
// to flush emitted rows before the sweep blocks. So the rows of calls a
// runner fulfills inside StartRunCtx (experiments.Session's disk hits)
// stream while the sweep is still being started.
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

// metric is one per-cell reduction. Reference-relative metrics
// (fairness) also receive the cell's single-thread references, one per
// benchmark in workload order, each measured on the same machine the SMT
// run used; the other metrics receive nil.
type metric struct {
	name string
	// needsReference marks metrics that read single-thread references.
	needsReference bool
	compute        func(res *core.Result, refs []*core.Result) float64
}

// metricTable lists the available reductions in documentation order.
var metricTable = []metric{
	{name: "throughput", compute: func(res *core.Result, _ []*core.Result) float64 {
		return metrics.Throughput(res.IPCs())
	}},
	{name: "fairness", needsReference: true, compute: func(res *core.Result, refs []*core.Result) float64 {
		stv := make([]float64, len(refs))
		for i, ref := range refs {
			stv[i] = ref.Threads[0].IPC
		}
		return metrics.Fairness(stv, res.IPCs())
	}},
	{name: "ed2", compute: func(res *core.Result, _ []*core.Result) float64 {
		return metrics.ED2(res.ExecutedTotal, res.Cycles, res.CommittedTotal)
	}},
	{name: "cycles", compute: func(res *core.Result, _ []*core.Result) float64 {
		return float64(res.Cycles)
	}},
	{name: "committed", compute: func(res *core.Result, _ []*core.Result) float64 {
		return float64(res.CommittedTotal)
	}},
	{name: "executed", compute: func(res *core.Result, _ []*core.Result) float64 {
		return float64(res.ExecutedTotal)
	}},
	// l2mpki is demand loads served by memory per kilo-instruction
	// (ThreadResult.L2MissLoads), not L2 line misses: a load that merges
	// into an outstanding MSHR counts, stores and fetches do not.
	{name: "l2mpki", compute: func(res *core.Result, _ []*core.Result) float64 {
		if res.CommittedTotal == 0 {
			return 0
		}
		var misses uint64
		for i := range res.Threads {
			misses += res.Threads[i].L2MissLoads
		}
		return 1000 * float64(misses) / float64(res.CommittedTotal)
	}},
	{name: "prefetches", compute: func(res *core.Result, _ []*core.Result) float64 {
		var n uint64
		for i := range res.Threads {
			n += res.Threads[i].PrefetchesIssued
		}
		return float64(n)
	}},
	{name: "runahead-episodes", compute: func(res *core.Result, _ []*core.Result) float64 {
		var n uint64
		for i := range res.Threads {
			n += res.Threads[i].RunaheadEpisodes
		}
		return float64(n)
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

// ExecuteStreamCtx dispatches every simulation of the plan's grid onto
// its runner's pool and reduces the results in a fixed order, so output
// is bit-identical for any worker count. When emit is non-nil it
// receives each reduced Row in fixed grid order (workload-major) as soon
// as the row's simulations complete, before the full set is assembled —
// the smtsimd daemon uses it to stream NDJSON while later cells are still
// simulating. A row whose runs are already finished when its workload's
// cells have been started (a cache or store hit) is emitted before the
// next workload's cells are started. A non-nil error from emit aborts
// the sweep. When flush is non-nil it is called before the sweep blocks
// on a simulation that has not finished (the next grid cell, or a
// fairness reference the next row reads) and some row was emitted since
// the last flush, so a streaming caller can buffer rows and push them
// out only before a wait.
// flush is not called after the last row.
//
// Once ctx is done the sweep returns ctx's error promptly, cells not yet
// started are never simulated, and cells already running finish into the
// runner's cache; rows already emitted stand.
func ExecuteStreamCtx(ctx context.Context, p *Plan, emit func(Row) error, flush func()) (*ResultSet, error) {
	sp, r, ws, combos := p.Spec, p.runner, p.workloads, p.combos
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
	}

	// wait collects one call, first flushing emitted rows when the call
	// would block.
	unflushed := false
	wait := func(c *simcache.Call[*core.Result]) (*core.Result, error) {
		if unflushed && !c.Ready() {
			flush()
			unflushed = false
		}
		return c.WaitCtx(ctx)
	}
	calls := make([][]*simcache.Call[*core.Result], len(ws))
	var refCalls [][][]*simcache.Call[*core.Result]
	if p.needRef {
		refCalls = make([][][]*simcache.Call[*core.Result], len(ws))
	}
	rs := &ResultSet{
		Name:        sp.Name,
		Description: sp.Description,
		Axes:        sp.AxisNames(),
		Metrics:     sp.metrics(),
		Workloads:   ws,
		Combos:      combos,
		Rows:        make([]Row, 0, len(ws)*len(combos)),
		raw:         make([][]*core.Result, len(ws)),
	}
	// ready reports whether every run of the next row (grid order,
	// workload-major) has finished; collect waits for them and reduces
	// and emits that row.
	ready := func() bool {
		wi, ci := len(rs.Rows)/len(combos), len(rs.Rows)%len(combos)
		if !calls[wi][ci].Ready() {
			return false
		}
		if p.needRef {
			for _, c := range refCalls[wi][ci] {
				if !c.Ready() {
					return false
				}
			}
		}
		return true
	}
	var refs []*core.Result
	collect := func() error {
		wi, ci := len(rs.Rows)/len(combos), len(rs.Rows)%len(combos)
		w, combo := ws[wi], combos[ci]
		res, err := wait(calls[wi][ci])
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sp.Name, err)
		}
		rs.raw[wi][ci] = res
		if p.needRef {
			refs = refs[:0]
			for bi, c := range refCalls[wi][ci] {
				ref, err := wait(c)
				if err != nil {
					return fmt.Errorf("scenario %s: reference %s: %w", sp.Name, w.Benchmarks[bi], err)
				}
				refs = append(refs, ref)
			}
		}
		row := Row{
			Workload:    w.Name(),
			Labels:      combo.Labels,
			Fingerprint: combo.Fingerprint,
			Values:      make([]float64, len(p.metrics)),
			Truncated:   res.Truncated,
		}
		for mi, m := range p.metrics {
			row.Values[mi] = m.compute(res, refs)
		}
		if emit != nil {
			if err := emit(row); err != nil {
				return fmt.Errorf("scenario %s: emit: %w", sp.Name, err)
			}
			unflushed = flush != nil
		}
		rs.Rows = append(rs.Rows, row)
		return nil
	}

	// Dispatch the whole grid (plus references, when a metric reads them)
	// before waiting on anything, so the pool stays saturated. Every cell
	// is registered under the sweep's context: whatever cancellation
	// leaves unstarted is never simulated. Between workloads, the rows
	// whose runs already finished (memory or disk hits, served inside
	// StartRunCtx) are emitted without waiting, so a stored sweep streams
	// while its later cells are still being started.
	for wi, w := range ws {
		calls[wi] = make([]*simcache.Call[*core.Result], len(combos))
		rs.raw[wi] = make([]*core.Result, len(combos))
		for ci, combo := range combos {
			calls[wi][ci] = r.StartRunCtx(ctx, w, combo.Config)
		}
		if p.needRef {
			refCalls[wi] = make([][]*simcache.Call[*core.Result], len(combos))
			for ci, combo := range combos {
				refCalls[wi][ci] = make([]*simcache.Call[*core.Result], len(w.Benchmarks))
				for bi, b := range w.Benchmarks {
					refCalls[wi][ci][bi] = startReference(ctx, r, b, combo.Config)
				}
			}
		}
		for len(rs.Rows) < (wi+1)*len(combos) && ready() {
			if err := collect(); err != nil {
				return nil, err
			}
		}
	}
	for len(rs.Rows) < len(ws)*len(combos) {
		if err := collect(); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// columns names the result set's columns in output order: the workload,
// one per axis, one per metric, then the truncation flag and the
// configuration fingerprint.
func (rs *ResultSet) columns() []string {
	cols := make([]string, 0, len(rs.Axes)+len(rs.Metrics)+3)
	cols = append(cols, "workload")
	cols = append(cols, rs.Axes...)
	cols = append(cols, rs.Metrics...)
	return append(cols, "truncated", "config")
}

// cells renders the row's cells in columns order into dst[:0], each
// metric value through num.
func (row *Row) cells(dst []string, num func(float64) string) []string {
	dst = append(append(dst[:0], row.Workload), row.Labels...)
	for _, v := range row.Values {
		dst = append(dst, num(v))
	}
	return append(dst, strconv.FormatBool(row.Truncated), row.Fingerprint)
}

// String renders the result set as an aligned text table, metric values
// in the figures' three-decimal format (report.F).
func (rs *ResultSet) String() string {
	t := report.NewTable(rs.Name, rs.columns()...)
	var cells []string
	for i := range rs.Rows {
		cells = rs.Rows[i].cells(cells, report.F)
		t.AddRow(cells...)
	}
	return t.String()
}

// WriteCSV emits the result set as CSV: a header of column names, then
// one record per row. Metric values take the shortest form that parses
// back to the same float64.
func (rs *ResultSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(rs.columns()); err != nil {
		return err
	}
	var rec []string
	for i := range rs.Rows {
		rec = rs.Rows[i].cells(rec, shortestFloat)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func shortestFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// CheckFormat reports whether format names an output format: "table",
// "json", "csv" or "ndjson". Empty is accepted; the caller's default
// applies.
func CheckFormat(format string) error {
	switch format {
	case "", "table", "json", "csv", "ndjson":
		return nil
	}
	return fmt.Errorf("unknown format %q (valid: table, json, csv, ndjson)", format)
}

// Emit writes the result set in the named format (see CheckFormat; empty
// renders the table).
func (rs *ResultSet) Emit(w io.Writer, format string) error {
	if err := CheckFormat(format); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	switch format {
	case "json":
		return rs.WriteJSON(w)
	case "csv":
		return rs.WriteCSV(w)
	case "ndjson":
		return rs.WriteNDJSON(w)
	}
	_, err := io.WriteString(w, rs.String())
	return err
}
