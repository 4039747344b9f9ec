// Package experiments regenerates every table and figure of the paper's
// evaluation (§5–§6). Each FigN function declares the simulation grid it
// needs as a scenario.Spec (workload selection × policy/register axes),
// executes it through the scenario engine on the session's worker pool,
// and applies the figure's paper-specific reduction to the structured
// result. Sessions cache simulations by workload and full machine
// configuration: the memory tier keys by the core.Config value, the
// optional disk tier (internal/resultstore) by the SHA-256 of the
// workload and core.Config.Canonical(). So figures that overlap — 1, 2
// and 3 all need the ICOUNT and RaT runs, and Figure 6's 320-register
// points are the Table 1 machine — still simulate each distinct point
// exactly once. A scenario plan has the session prepare each of its
// cells once (Session.Prepare: the cache key's parts and the store key),
// and a memory miss probes the disk tier with that key in the requester
// (Session.StartRunCtx), so a stored cell is served without queueing,
// and only cells that simulate use the worker pool.
//
// The harness is deliberately a library: cmd/experiments wraps it with
// flags (including -scenario for arbitrary JSON sweeps), and bench_test.go
// wraps it with testing.B.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/resultstore"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/simcache"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// Options scales the harness.
type Options struct {
	// TraceLen is the per-thread trace length.
	TraceLen int
	// MaxCycles bounds each run.
	MaxCycles uint64
	// PerGroup limits workloads per Table 2 group (0 = all).
	PerGroup int
	// Groups restricts the groups (nil = all six).
	Groups []string
	// Seed decorrelates the whole experiment instance.
	Seed uint64
	// RegSizes is Figure 6's register file sweep.
	RegSizes []int
	// Workers bounds concurrent simulations (0 = GOMAXPROCS). Every
	// figure's independent workload×policy runs dispatch onto this pool;
	// results are identical to sequential execution (each simulation is
	// deterministic and reductions run in a fixed order), so Workers only
	// changes wall-clock time.
	Workers int
	// CacheEntries bounds the simulation result cache by entry count (0 =
	// unbounded, the right default for one-shot figure regeneration where
	// every run may be re-read). Long-lived processes — the smtsimd daemon
	// — set it so arbitrary client sweeps cannot grow the process without
	// bound; a result is at most about 1 KB, so the entry count bounds
	// the cache's memory too. In-flight simulations are never evicted,
	// and eviction only costs recomputation (results are deterministic),
	// never correctness.
	CacheEntries int
	// StoreDir, when non-empty, enables the persistent on-disk result
	// tier (internal/resultstore) beneath the in-memory cache: a memory
	// miss probes the store in the requester before the cell is queued,
	// and every completed simulation is written behind the fulfilled
	// result. Because each simulation is a deterministic pure function
	// of (workload, config), a restarted process pointed at the same
	// directory serves previous sweeps without re-simulating, and several
	// processes may share one directory. StoreBytes bounds the store's
	// on-disk footprint (least-recently-accessed entries are deleted past
	// it; 0 = unbounded).
	StoreDir   string
	StoreBytes int64
}

// Default returns the full-suite options.
func Default() Options {
	return Options{
		TraceLen:  20_000,
		MaxCycles: 12_000_000,
		Seed:      1,
		RegSizes:  []int{64, 128, 192, 256, 320},
	}
}

// Quick returns reduced options for smoke runs and benchmarks.
func Quick() Options {
	o := Default()
	o.TraceLen = 8_000
	o.MaxCycles = 5_000_000
	o.PerGroup = 3
	o.RegSizes = []int{64, 192, 320}
	return o
}

// groups returns the selected group list.
func (o Options) groups() []string {
	if len(o.Groups) > 0 {
		return o.Groups
	}
	return workload.Groups()
}

// runKey identifies a cached simulation: a workload name plus the
// complete machine configuration, by value. Config is a tree of plain
// comparable structs, and Go equality on it holds exactly when the
// canonical encodings (core.Config.Canonical) are equal, so a memory hit
// renders nothing. Any knob change — policy, register file, ROB, cache
// geometry, runahead tuning, seed — yields a distinct key, and any two
// requests describing the same machine share one simulation, whichever
// figure or scenario they came from. The disk tier (internal/resultstore)
// keys by the SHA-256 of workload and Canonical instead, which is stable
// across processes.
type runKey struct {
	workload string
	config   core.Config
}

// Session shares simulation results and single-thread references across
// figures and scenarios. Independent runs execute on a bounded worker
// pool (Options.Workers); duplicate requests for one runKey share a
// single execution, singleflight-style. Errors memoize like results: a
// run's outcome is a pure function of its configuration, so retrying a
// failed key could never succeed.
//
// The pool is a work queue drained by at most Options.Workers
// goroutines, spawned on demand and exiting when the queue empties — a
// request for N cells costs N queue entries, not N parked goroutines,
// and an idle session holds no goroutines at all. Workers pop jobs from
// a fair queue (internal/sched) that interleaves active requesters
// ICOUNT-style; a lone requester's jobs pop in push order. Requesters
// are identified by the context stamp sched.WithRequester (smtsimd
// stamps each HTTP request; unstamped contexts share one anonymous
// bucket), and the order never changes a result. Cancellation happens
// at the queue boundary: a cell whose interested requesters (the
// contexts passed to StartRunCtx) have all gone away by the time a
// worker pops it is abandoned, never simulated. A cell already running
// always finishes and populates the cache — results are deterministic
// and shared, so completing them is never wasted work.
//
// Only cells that simulate use the pool. With a result store, a memory
// miss is probed against the store by StartRunCtx itself, on the
// requester's goroutine, and a disk hit is fulfilled there: it never
// queues, never wakes a worker and never counts in SchedStats. So the
// stored cells of one request are read one after another, not spread
// over the workers; scenario.ExecuteStreamCtx emits each workload's
// rows as soon as they are read.
//
// Session implements scenario.Runner, so a scenario.Plan built on it
// (scenario.ExecuteStreamCtx) dispatches onto the same pool and cache
// the figures use — grid cells and their core.Reference fairness runs
// alike. scenario.NewPlan calls Prepare once per cell, and the prepared
// cell holds everything about it that no request changes: the parts of
// its runKey (the plan's workload name, built once per workload, and a
// pointer to the plan's configuration) and its resultstore.Key (entry
// name, workload name and the plan's per-point canonical string). A
// served sweep so renders, joins and hashes nothing per cell: a disk hit
// costs the store's read and its recency bump.
type Session struct {
	opt    Options
	base   core.Config
	cache  *simcache.Cache[runKey, *core.Result]
	store  *resultstore.Store // nil unless Options.StoreDir is set
	traces *tracestore.Store

	mu         sync.Mutex
	queue      sched.Queue[job] // jobs not yet picked up by a worker
	workers    int              // live worker goroutines
	maxWorkers int
}

// job is one queued simulation: the call its requesters hold plus the
// prepared cell that computes it.
type job struct {
	key  runKey
	call *simcache.Call[*core.Result]
	cell *cell
}

// cell is a cell the session prepared for a scenario plan (Prepare):
// everything about it that no request changes. It shares its workload,
// name, configuration and canonical string with the plan, and owns only
// its store entry's name.
type cell struct {
	w      workload.Workload
	name   string       // w.Name(), the cache key's workload
	config *core.Config // the plan's; never modified
	key    resultstore.Key
}

// SizeBytes is the cell plus its entry name, the only bytes it does not
// share with its plan.
func (c *cell) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*c)) + int64(len(c.key.Name()))
}

// NewSession builds a session, validating the workload selection up
// front: an unknown group name (e.g. from a -groups flag) or a workload
// naming an unknown benchmark is reported here as an error listing the
// valid names, instead of panicking mid-figure.
func NewSession(opt Options) (*Session, error) {
	for _, g := range opt.groups() {
		ws, err := workload.ByGroup(g)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		for _, w := range ws {
			if err := w.Validate(); err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
		}
	}
	base := core.DefaultConfig()
	if opt.TraceLen > 0 {
		base.TraceLen = opt.TraceLen
	}
	if opt.MaxCycles > 0 {
		base.MaxCycles = opt.MaxCycles
	}
	base.Seed = opt.Seed
	// A base no cell could run (a trace length past core's cap) fails
	// here, at start-up, rather than in every later request.
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var store *resultstore.Store
	if opt.StoreDir != "" {
		var err error
		if store, err = resultstore.Open(opt.StoreDir, opt.StoreBytes); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	return &Session{
		opt:        opt,
		base:       base,
		maxWorkers: workers,
		cache:      simcache.New[runKey, *core.Result](opt.CacheEntries, 0, nil),
		store:      store,
		// Cells run workload-major, so each worker needs at most one
		// workload's traces at a time; one more workload is slack.
		traces: tracestore.NewBounded(workload.MaxThreads*(workers+1), tracestore.DefaultMemBytes),
	}, nil
}

// CacheStats snapshots the simulation cache's hit/miss/eviction counters
// and current population (the smtsimd /v1/metrics payload).
func (s *Session) CacheStats() simcache.Stats { return s.cache.Stats() }

// StoreStats snapshots the persistent result store's counters; the zero
// Stats when the session runs without a store (Options.StoreDir empty).
func (s *Session) StoreStats() resultstore.Stats {
	if s.store == nil {
		return resultstore.Stats{}
	}
	return s.store.Stats()
}

// TraceStats snapshots the session's trace tier: hit/miss/eviction
// counters and the actual generation count (the smtsimd /v1/metrics
// "trace" payload).
func (s *Session) TraceStats() tracestore.Stats { return s.traces.Stats() }

// BatchStats always reports zero: the session has a single scalar
// execution path.
//
// Deprecated: batched execution was removed; kept so existing callers
// still compile.
func (s *Session) BatchStats() (batches, cells uint64) { return 0, 0 }

// SchedStats snapshots the work queue: queued jobs/cells, in-service
// cells, and per-requester accounting (the smtsimd /v1/metrics
// "scheduler" payload). Queued cells are work accepted but not yet
// picked up by a worker. Only cells that simulate are queued: a memory
// hit or a disk hit never appears here.
func (s *Session) SchedStats() sched.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Snapshot()
}

// BaseConfig returns the configuration scenario deltas apply onto: the
// Table 1 machine scaled by this session's Options.
func (s *Session) BaseConfig() core.Config { return s.base }

// dispatch queues one job under a requester identity and ensures a
// worker will drain it. Workers spawn lazily up to the pool bound and
// exit when the queue empties, so the pool leaks nothing between sweeps.
// The queue decides pop order only; every queued job is eventually
// popped, and results are identical in any order.
func (s *Session) dispatch(requester string, j job) {
	s.mu.Lock()
	s.queue.Push(sched.Job[job]{Requester: requester, Cells: 1, Payload: j})
	if s.workers < s.maxWorkers {
		s.workers++
		// Bounded pool: s.workers accounts every spawn under s.mu, and
		// work decrements it under s.mu before returning, so tests
		// observe drain via the counter.
		go s.work()
	}
	s.mu.Unlock()
}

// work drains the queue in its fair order. A popped job whose
// requesters have all canceled is abandoned — never simulated, its key
// free to recompute — and every other job runs to completion and
// populates the cache. A job counts against its requester's in-service
// account from pop to Done, which is what the queue's ICOUNT-style
// priority reads.
//
// The worker builds one machine and runs every cell it pops on it, each
// cell resetting the machine in place. The machine lives as long as the
// worker: it is dropped when the queue empties and the worker exits, so
// an idle session keeps none.
func (s *Session) work() {
	var m core.Machine
	for {
		s.mu.Lock()
		sj, ok := s.queue.Pop()
		if !ok {
			s.workers--
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		j := sj.Payload
		var res *core.Result
		var err error
		abandoned := s.cache.Abandon(j.key, j.call, context.Canceled)
		if !abandoned {
			res, err = s.run(&m, j.cell)
		}
		// Release the in-service account before waking the waiters, so a
		// requester holding its result never sees its cell in service.
		s.mu.Lock()
		s.queue.Done(sj)
		s.mu.Unlock()
		if !abandoned {
			j.call.Fulfill(res, err)
		}
	}
}

// run simulates one cell on m, the calling worker's machine, against the
// session's trace tier and writes the result behind under the cell's
// prepared key. It never probes the persistent result tier: StartRunCtx
// did, before it queued the cell, so every cell that reaches a worker is
// one the store could not serve.
func (s *Session) run(m *core.Machine, c *cell) (*core.Result, error) {
	r, err := m.Run(*c.config, c.w, s.traces)
	if err != nil {
		return nil, fmt.Errorf("%s under %s: %w", c.name, c.config.Policy, err)
	}
	if s.store != nil {
		// Write-behind: persistence is best-effort — a full disk or
		// unwritable store costs future recomputation, never this result.
		// Failures are visible in StoreStats().WriteErrors.
		_ = s.store.PutKey(c.key, r)
	}
	return r, nil
}

// Prepare readies one cell of a scenario plan (scenario.Runner): it keeps
// the plan's workload, name and configuration, and, when the session has
// a result store, prepares the cell's store key (resultstore.NewKey) from
// the plan's canonical string, so no request renders or hashes the
// cell's identity again.
func (s *Session) Prepare(w workload.Workload, name string, cfg *core.Config, canonical string) scenario.Cell {
	c := &cell{w: w, name: name, config: cfg}
	if s.store != nil {
		c.key = resultstore.NewKey(name, canonical)
	}
	return c
}

// StartRunCtx schedules (or joins) the simulation of one prepared cell
// (Prepare), returning its call without waiting for a simulation. A
// memory miss first probes the persistent result tier with the cell's
// prepared key, here, on the requester's goroutine: a stored result is
// bit-identical to what the simulation would produce, so a hit returns a
// call that is already fulfilled, and the cell never enters the work
// queue or wakes a worker. Only a cell the store cannot serve is queued.
// If every context registered against a queued cell (this one, plus any
// concurrent requester's) is done before a worker picks it up, it is
// abandoned unrun. A cell a worker already started always finishes and
// populates the cache.
func (s *Session) StartRunCtx(ctx context.Context, sc scenario.Cell) *simcache.Call[*core.Result] {
	c := sc.(*cell)
	key := runKey{workload: c.name, config: *c.config}
	call, created := s.cache.BeginCtx(ctx, key)
	if !created {
		return call
	}
	if s.store != nil {
		if r, ok := s.store.GetKey(c.key); ok {
			call.Fulfill(r, nil)
			return call
		}
	}
	s.dispatch(sched.Requester(ctx), job{key: key, call: call, cell: c})
	return call
}

// RunScenarioCtx plans (scenario.NewPlan, with no cell bound) and
// executes a declarative sweep on this session's worker pool and cache.
// Points that coincide with figure runs (or with each
// other) are simulated once. Cells not yet started when ctx dies are
// never simulated, running cells finish into the cache, and the call
// returns ctx's error promptly.
func (s *Session) RunScenarioCtx(ctx context.Context, sp *scenario.Spec) (*scenario.ResultSet, error) {
	p, err := scenario.NewPlan(s, sp, 0)
	if err != nil {
		return nil, err
	}
	return scenario.ExecuteStreamCtx(ctx, p, nil, nil)
}

// figureSpec assembles the scenario a figure needs: the session's
// workload selection crossed with the figure's axes.
func (s *Session) figureSpec(name string, mets []string, axes ...scenario.Axis) *scenario.Spec {
	return &scenario.Spec{
		Name:      name,
		Workloads: scenario.WorkloadSpec{Groups: s.opt.groups(), PerGroup: s.opt.PerGroup},
		Axes:      axes,
		Metrics:   mets,
	}
}

// policyAxis builds the "policy" axis from a policy list.
func policyAxis(pols []core.PolicyKind) scenario.Axis {
	ax := scenario.Axis{Name: "policy"}
	for _, p := range pols {
		name := string(p)
		ax.Points = append(ax.Points, scenario.Point{Label: name, Delta: scenario.Delta{Policy: &name}})
	}
	return ax
}

// regsAxis builds the "regs" axis of Figure 6's register file sweep.
func regsAxis(sizes []int) scenario.Axis {
	ax := scenario.Axis{Name: "regs"}
	for _, n := range sizes {
		size := n
		ax.Points = append(ax.Points, scenario.Point{Label: strconv.Itoa(size), Delta: scenario.Delta{Regs: &size}})
	}
	return ax
}

// groupMean is the Table 2 group average every figure reports: the
// mean of the values vals returns for each workload of group g, in
// selection order. vals gets the workload's grid row index.
func groupMean(rs *scenario.ResultSet, g string, vals func(wi int) []float64) float64 {
	var xs []float64
	for wi, w := range rs.Workloads {
		if w.Group == g {
			xs = append(xs, vals(wi)...)
		}
	}
	return metrics.Mean(xs)
}

// PolicyFigure is the shared shape of Figures 1 and 2: group-average
// throughput and fairness for a set of policies.
type PolicyFigure struct {
	Name     string
	Policies []core.PolicyKind
	Groups   []string
	// Throughput[group][policy] and Fairness[group][policy].
	Throughput map[string]map[core.PolicyKind]float64
	Fairness   map[string]map[core.PolicyKind]float64
}

// policyFigure runs the common Figure 1/2 machinery: one policy axis,
// throughput and fairness per cell, group-averaged.
func (s *Session) policyFigure(ctx context.Context, name string, pols []core.PolicyKind) (*PolicyFigure, error) {
	rs, err := s.RunScenarioCtx(ctx, s.figureSpec(name, []string{"throughput", "fairness"}, policyAxis(pols)))
	if err != nil {
		return nil, err
	}
	f := &PolicyFigure{
		Name:       name,
		Policies:   pols,
		Groups:     s.opt.groups(),
		Throughput: map[string]map[core.PolicyKind]float64{},
		Fairness:   map[string]map[core.PolicyKind]float64{},
	}
	for _, g := range f.Groups {
		f.Throughput[g] = map[core.PolicyKind]float64{}
		f.Fairness[g] = map[core.PolicyKind]float64{}
		for pi, p := range pols {
			f.Throughput[g][p] = groupMean(rs, g, func(wi int) []float64 { return []float64{rs.Value(wi, pi, 0)} })
			f.Fairness[g][p] = groupMean(rs, g, func(wi int) []float64 { return []float64{rs.Value(wi, pi, 1)} })
		}
	}
	return f, nil
}

// Fig1 reproduces Figure 1: RaT against the static fetch policies.
func (s *Session) Fig1(ctx context.Context) (*PolicyFigure, error) {
	return s.policyFigure(ctx, "Figure 1: I-Fetch policies (ICOUNT, STALL, FLUSH, RaT)",
		[]core.PolicyKind{core.PolicyICount, core.PolicySTALL, core.PolicyFLUSH, core.PolicyRaT})
}

// Fig2 reproduces Figure 2: RaT against the dynamic resource controllers.
func (s *Session) Fig2(ctx context.Context) (*PolicyFigure, error) {
	return s.policyFigure(ctx, "Figure 2: resource control policies (ICOUNT, DCRA, HillClimbing, RaT)",
		[]core.PolicyKind{core.PolicyICount, core.PolicyDCRA, core.PolicyHillClimbing, core.PolicyRaT})
}

// String renders the figure as two tables (throughput, fairness).
func (f *PolicyFigure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", f.Name)
	for _, part := range []struct {
		title string
		data  map[string]map[core.PolicyKind]float64
	}{
		{"(a) Throughput (avg IPC)", f.Throughput},
		{"(b) Fairness (harmonic mean of speedups)", f.Fairness},
	} {
		b.WriteString(groupTable(part.title, f.Groups, policyNames(f.Policies), func(g string, i int) string {
			return report.F(part.data[g][f.Policies[i]])
		}))
		b.WriteByte('\n')
	}
	return b.String()
}

// groupTable renders one figure panel: a row per workload group, a
// column per cols entry, each cell cell(group, column index).
func groupTable(title string, groups, cols []string, cell func(g string, i int) string) string {
	tb := report.NewTable(title, append([]string{"workload"}, cols...)...)
	for _, g := range groups {
		row := []string{g}
		for i := range cols {
			row = append(row, cell(g, i))
		}
		tb.AddRow(row...)
	}
	return tb.String()
}

func policyNames(pols []core.PolicyKind) []string {
	out := make([]string, len(pols))
	for i, p := range pols {
		out[i] = string(p)
	}
	return out
}

// Fig3Result holds Figure 3: ED² normalized to ICOUNT per group/policy.
type Fig3Result struct {
	Groups   []string
	Policies []core.PolicyKind
	ED2      map[string]map[core.PolicyKind]float64 // normalized to ICOUNT
}

// Fig3 reproduces Figure 3: Energy-Delay² (executed instructions × CPI²),
// normalized to ICOUNT.
func (s *Session) Fig3(ctx context.Context) (*Fig3Result, error) {
	pols := []core.PolicyKind{core.PolicyICount, core.PolicySTALL, core.PolicyFLUSH,
		core.PolicyDCRA, core.PolicyHillClimbing, core.PolicyRaT}
	rs, err := s.RunScenarioCtx(ctx, s.figureSpec("Figure 3", []string{"ed2"}, policyAxis(pols)))
	if err != nil {
		return nil, err
	}
	const icIdx = 0 // ICOUNT's position in pols
	f := &Fig3Result{Groups: s.opt.groups(), Policies: pols, ED2: map[string]map[core.PolicyKind]float64{}}
	for _, g := range f.Groups {
		f.ED2[g] = map[core.PolicyKind]float64{}
		// Per-workload ED2 normalized to that workload's ICOUNT, then
		// group-averaged (the paper normalizes per workload).
		for pi, p := range pols {
			f.ED2[g][p] = groupMean(rs, g, func(wi int) []float64 {
				return []float64{metrics.Normalize(rs.Value(wi, pi, 0), rs.Value(wi, icIdx, 0))}
			})
		}
	}
	return f, nil
}

// String renders Figure 3.
func (f *Fig3Result) String() string {
	return groupTable("Figure 3: Energy-Delay² normalized to ICOUNT (lower is better)", f.Groups,
		policyNames(f.Policies), func(g string, i int) string { return report.F(f.ED2[g][f.Policies[i]]) })
}
