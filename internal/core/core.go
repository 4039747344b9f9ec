// Package core is the simulator façade: it wires traces, policies, the
// pipeline and the measurement methodology into one callable API. This is
// the package examples and the experiment harness program against.
//
// A Run executes one multiprogrammed workload under one policy on the
// Table 1 machine, measured FAME-style (Vera et al., PACT 2007): every
// thread's trace re-executes in a loop, and the measurement window closes
// only when each thread has completed at least MinIterations full trace
// executions, so no thread is under-represented in the reported IPCs.
//
// A run needs a machine, and a Machine runs many in turn: each Run resets
// it in place to the cell's configuration, so its caches, predictor table,
// register files and instruction pool are built once and reused, and the
// result is exactly that of a new machine. Run and RunTraced build a new
// Machine for their one run and drop it. A sweep engine keeps one per
// worker goroutine for the worker's life (experiments.Session does), never
// one shared between goroutines or kept while no worker runs.
package core

import (
	"fmt"
	"math"

	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/rescontrol"
	"repro/internal/runahead"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// PolicyKind selects the fetch/resource policy for a run.
type PolicyKind string

// The evaluated policies: the paper's baselines (ICOUNT, STALL, FLUSH from
// §5.1; DCRA, HillClimbing from §5.2), the RaT proposal, and the Figure 4
// ablation variants.
const (
	PolicyRR           PolicyKind = "RR"
	PolicyICount       PolicyKind = "ICOUNT"
	PolicySTALL        PolicyKind = "STALL"
	PolicyFLUSH        PolicyKind = "FLUSH"
	PolicyDCRA         PolicyKind = "DCRA"
	PolicyHillClimbing PolicyKind = "HillClimbing"
	PolicyRaT          PolicyKind = "RaT"
	// PolicyRaTNoPrefetch is Figure 4's "RaT without prefetching": runahead
	// periods happen but no access below the L1 is made during them.
	PolicyRaTNoPrefetch PolicyKind = "RaT-noprefetch"
	// PolicyRaTNoFetch is Figure 4's resource-availability experiment:
	// threads enter runahead but fetch nothing new during it.
	PolicyRaTNoFetch PolicyKind = "RaT-nofetch"
	// PolicyRaTCache is the §3.3 runahead-cache ablation.
	PolicyRaTCache PolicyKind = "RaT-racache"
	// PolicyRaTNoFPInv disables §3.3's FP invalidation.
	PolicyRaTNoFPInv PolicyKind = "RaT-nofpinv"
	// PolicyMLP is the MLP-aware fetch policy of the paper's related work
	// (§2, Eyerman & Eeckhout HPCA 2007): fetch-ahead bounded by a per-load
	// MLP predictor, then stall. Implemented as an extra comparator.
	PolicyMLP PolicyKind = "MLP"
	// PolicyRaTDCRA composes RaT with DCRA's resource caps — the
	// combination the paper's §5.2 explicitly leaves as future work
	// ("DCRA and HillClimbing are orthogonal to the mechanism proposed in
	// this paper"). Implemented here as an extension experiment.
	PolicyRaTDCRA PolicyKind = "RaT+DCRA"
)

// Policies lists the main evaluation policies in presentation order.
func Policies() []PolicyKind {
	return []PolicyKind{
		PolicyICount, PolicySTALL, PolicyFLUSH,
		PolicyDCRA, PolicyHillClimbing, PolicyRaT,
	}
}

// Config parameterizes a run.
type Config struct {
	// Pipeline is the machine description (DefaultConfig = Table 1).
	Pipeline pipeline.Config
	// Policy selects the fetch/resource policy.
	Policy PolicyKind
	// TraceLen is the per-thread synthetic trace length.
	TraceLen int
	// MinIterations is the FAME representation requirement: full trace
	// executions per thread before measurement may stop.
	MinIterations int
	// WarmupInsts is the per-thread committed-instruction count of the
	// timed-but-unmeasured warm phase that precedes measurement (cache,
	// predictor and policy state converge there). Zero selects half a
	// trace iteration; a negative count is invalid.
	WarmupInsts int
	// MaxCycles bounds the run (safety valve; a run that hits it is still
	// reported, with Truncated set).
	MaxCycles uint64
	// Seed decorrelates workload instances.
	Seed uint64
	// RunaheadExitPenalty, when nonzero, overrides the exit penalty of the
	// policy-implied runahead configuration. It exists so configuration
	// sweeps (internal/scenario) can reach the runahead knob that is
	// otherwise derived from Policy inside Run.
	RunaheadExitPenalty uint64
}

// DefaultConfig returns the Table 1 machine with FAME measurement.
func DefaultConfig() Config {
	return Config{
		Pipeline:      pipeline.DefaultConfig(),
		Policy:        PolicyICount,
		TraceLen:      trace.DefaultLen,
		MinIterations: 1,
		MaxCycles:     30_000_000,
		Seed:          1,
	}
}

// ThreadResult is one hardware context's measurement.
type ThreadResult struct {
	// Benchmark is the SPEC benchmark name.
	Benchmark string
	// Committed is the architected instruction count at measurement end.
	Committed uint64
	// IPC is Committed / Cycles.
	IPC float64
	// Executed counts energy-consuming executions (ED² input).
	Executed uint64
	// L2MissLoads counts demand loads served by memory.
	L2MissLoads uint64
	// RunaheadEpisodes, PseudoRetired, Folded, PrefetchesIssued summarize
	// RaT activity.
	RunaheadEpisodes uint64
	PseudoRetired    uint64
	Folded           uint64
	PrefetchesIssued uint64
	// RegsNormal / RegsRunahead are the Figure 5 occupancy means.
	RegsNormal, RegsRunahead float64
	// CyclesInRunahead counts cycles the thread spent in runahead mode.
	CyclesInRunahead uint64
}

// Result is one run's measurement.
type Result struct {
	// Workload and Policy identify the run.
	Workload string
	Policy   PolicyKind
	// Cycles is the measurement window length.
	Cycles uint64
	// Threads holds per-context results.
	Threads []ThreadResult
	// ExecutedTotal sums executed instructions over threads (ED² input).
	ExecutedTotal uint64
	// CommittedTotal sums committed instructions.
	CommittedTotal uint64
	// Truncated reports that MaxCycles hit before FAME coverage completed.
	Truncated bool
}

// IPCs returns the per-thread IPC vector (eq. 1 / eq. 2 input).
func (r *Result) IPCs() []float64 {
	out := make([]float64, len(r.Threads))
	for i := range r.Threads {
		out[i] = r.Threads[i].IPC
	}
	return out
}

// buildPolicy maps a PolicyKind onto a pipeline policy plus the runahead
// configuration it implies.
func buildPolicy(kind PolicyKind) (pipeline.Policy, runahead.Config, error) {
	switch kind {
	case PolicyRR:
		return policy.RoundRobin{}, runahead.Disabled(), nil
	case PolicyICount, "":
		return pipeline.ICount{}, runahead.Disabled(), nil
	case PolicySTALL:
		return policy.Stall{}, runahead.Disabled(), nil
	case PolicyFLUSH:
		return policy.Flush{}, runahead.Disabled(), nil
	case PolicyDCRA:
		return rescontrol.DCRA{}, runahead.Disabled(), nil
	case PolicyHillClimbing:
		return rescontrol.NewHillClimbing(), runahead.Disabled(), nil
	case PolicyRaT:
		return pipeline.ICount{}, runahead.Default(), nil
	case PolicyRaTNoPrefetch:
		ra := runahead.Default()
		ra.Prefetch = false
		return pipeline.ICount{}, ra, nil
	case PolicyRaTNoFetch:
		ra := runahead.Default()
		ra.FetchInRunahead = false
		return pipeline.ICount{}, ra, nil
	case PolicyRaTCache:
		ra := runahead.Default()
		ra.UseRunaheadCache = true
		return pipeline.ICount{}, ra, nil
	case PolicyRaTNoFPInv:
		ra := runahead.Default()
		ra.InvalidateFP = false
		return pipeline.ICount{}, ra, nil
	case PolicyRaTDCRA:
		return rescontrol.DCRA{}, runahead.Default(), nil
	case PolicyMLP:
		return policy.NewMLPAware(), runahead.Disabled(), nil
	}
	return nil, runahead.Config{}, fmt.Errorf("core: unknown policy %q", kind)
}

// withRunDefaults fills in the zero config fields Run documents as
// defaulted.
func (cfg Config) withRunDefaults() Config {
	if cfg.TraceLen == 0 {
		cfg.TraceLen = trace.DefaultLen
	}
	if cfg.MinIterations == 0 {
		cfg.MinIterations = 1
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = DefaultConfig().MaxCycles
	}
	return cfg
}

// Run executes workload w under cfg and returns its measurement.
func Run(cfg Config, w workload.Workload) (*Result, error) {
	return RunTraced(cfg, w, nil)
}

// RunTraced is Run against an explicit trace tier (nil = the process-wide
// default): the workload's traces are served from the tier, shared with
// every other run of the same identity, and treated as read-only. It runs
// on a new Machine.
func RunTraced(cfg Config, w workload.Workload, ts *tracestore.Store) (*Result, error) {
	return new(Machine).Run(cfg, w, ts)
}

// Machine is one simulated machine that runs cells one after another.
// Each Run rebuilds it in place (pipeline.Core.Reset), so a run on a
// reused Machine returns exactly what a run on a new one does, while the
// caches, predictor table, register files and instruction pool keep their
// storage from the cells before. The zero value is ready to use, and
// builds its pipeline on its first Run. A Machine is not safe for
// concurrent use, and holds the traces of its last cell until its next
// Run or until it is dropped.
type Machine struct {
	core *pipeline.Core
}

// Run executes workload w under cfg on m, against the trace tier ts as
// RunTraced does, and returns its measurement.
func (m *Machine) Run(cfg Config, w workload.Workload, ts *tracestore.Store) (*Result, error) {
	cfg = cfg.withRunDefaults()
	if err := m.load(cfg, w, ts); err != nil {
		return nil, err
	}
	return measure(m.core, cfg, w), nil
}

// machine derives the policy and the pipeline configuration a run of cfg
// builds: Pipeline with the runahead mechanism the policy implies. It
// first checks the measurement knobs against their caps (0 selects the
// run default). Machine.load and Validate share it, so validation sees
// exactly the machine a run would build, and a run of an unvalidated
// config fails where validation would.
func (cfg Config) machine() (pipeline.Config, pipeline.Policy, error) {
	for _, k := range []struct {
		name      string
		n, lo, hi int
	}{
		{"trace length", cfg.TraceLen, 0, maxTraceLen},
		{"minimum iterations", cfg.MinIterations, 0, maxMinIterations},
		// MaxCycles/2 ends the warm phase, so any count is safe.
		{"warmup instructions", cfg.WarmupInsts, 0, math.MaxInt},
	} {
		if k.n < k.lo || k.n > k.hi {
			return pipeline.Config{}, nil, fmt.Errorf("core: %s %d, want %d to %d", k.name, k.n, k.lo, k.hi)
		}
	}
	pol, ra, err := buildPolicy(cfg.Policy)
	if err != nil {
		return pipeline.Config{}, nil, err
	}
	if cfg.RunaheadExitPenalty > 0 {
		ra.ExitPenalty = cfg.RunaheadExitPenalty
	}
	pcfg := cfg.Pipeline
	pcfg.Runahead = ra
	return pcfg, pol, nil
}

// Caps on the measurement knobs. Like pipeline's structure caps, each is
// far above what DefaultConfig, the examples and the benchmark use, and
// below what would take a worker down or make a run report a wrong
// window.
const (
	// maxTraceLen bounds each thread's trace at 2^20 instructions: 24 MiB
	// a thread, 96 MiB for a 4-thread workload at the cap. DefaultConfig
	// uses 60,000 and the experiments 20,000 or fewer. An unbounded length
	// asks trace.Generate for a slice the runtime cannot make.
	maxTraceLen = 1 << 20
	// maxMinIterations bounds the FAME iterations at 2^16, so the window
	// span TraceLen × MinIterations (at most 2^36 instructions) cannot
	// wrap a uint64 and end the window at once with a zero result.
	// DefaultConfig uses 1.
	maxMinIterations = 1 << 16
)

// Validate reports whether a run of cfg can build its machine and measure
// it: the measurement knobs are within their caps, the policy is known,
// and the pipeline it implies, runahead mechanism included, is coherent.
func (cfg Config) Validate() error {
	pcfg, _, err := cfg.machine()
	if err != nil {
		return err
	}
	return pcfg.Validate()
}

// load rebuilds m as the cache-warmed pipeline a run of w under cfg (with
// its run defaults applied) measures.
func (m *Machine) load(cfg Config, w workload.Workload, ts *tracestore.Store) error {
	pcfg, pol, err := cfg.machine()
	if err != nil {
		return err
	}
	traces, err := w.TracesVia(ts, cfg.TraceLen, cfg.Seed)
	if err != nil {
		return err
	}
	if m.core == nil {
		m.core = &pipeline.Core{}
	}
	if err := m.core.Reset(pcfg, traces, pol); err != nil {
		return err
	}
	m.core.WarmupCaches()
	return nil
}

// measure runs the warm phase and the FAME measurement window on c.
func measure(c *pipeline.Core, cfg Config, w workload.Workload) *Result {
	// Phase 1 — timed, unmeasured warm phase: cache contents, branch
	// predictor weights, and policy state (DCRA classification, hill-
	// climbing epochs) converge before measurement begins. Coverage is
	// checked before the limit, both only between 256-cycle step blocks.
	warm := uint64(cfg.WarmupInsts)
	if cfg.WarmupInsts == 0 {
		warm = uint64(cfg.TraceLen / 2)
	}
	truncated := false
	for !covered(c, func(int) uint64 { return warm }) {
		if c.Cycle() >= cfg.MaxCycles/2 {
			truncated = true
			break
		}
		stepBlock(c)
	}

	// Phase 2 — FAME measurement: run until every thread has committed a
	// further MinIterations full trace executions *beyond its snapshot*
	// (relative targets, so warm-phase overshoot cannot shrink any
	// thread's measured iteration count below the FAME requirement).
	startCycle := c.Cycle()
	start := make([]pipeline.ThreadStats, c.NumThreads())
	for tid := range start {
		start[tid] = *c.Stats(tid)
	}
	span := uint64(cfg.TraceLen) * uint64(cfg.MinIterations)
	for !covered(c, func(tid int) uint64 { return start[tid].Committed + span }) {
		if c.Cycle() >= cfg.MaxCycles {
			truncated = true
			break
		}
		stepBlock(c)
	}

	cycles := c.Cycle() - startCycle
	res := &Result{
		Workload:  w.Name(),
		Policy:    cfg.Policy,
		Cycles:    cycles,
		Truncated: truncated,
	}
	for tid := 0; tid < c.NumThreads(); tid++ {
		cur, prev := c.Stats(tid), &start[tid]
		tr := ThreadResult{
			Benchmark:        w.Benchmarks[tid],
			Committed:        cur.Committed - prev.Committed,
			Executed:         cur.Executed - prev.Executed,
			L2MissLoads:      cur.L2MissLoads - prev.L2MissLoads,
			RunaheadEpisodes: cur.RunaheadEpisodes - prev.RunaheadEpisodes,
			PseudoRetired:    cur.PseudoRetired - prev.PseudoRetired,
			Folded:           cur.Folded - prev.Folded,
			PrefetchesIssued: cur.PrefetchesIssued - prev.PrefetchesIssued,
			CyclesInRunahead: cur.CyclesInRunahead - prev.CyclesInRunahead,
		}
		// Every window cycle samples each thread once, in one mode.
		tr.RegsNormal = perCycle(cur.RegCyclesNormal-prev.RegCyclesNormal, cycles-tr.CyclesInRunahead)
		tr.RegsRunahead = perCycle(cur.RegCyclesRunahead-prev.RegCyclesRunahead, tr.CyclesInRunahead)
		tr.IPC = perCycle(tr.Committed, cycles)
		res.Threads = append(res.Threads, tr)
		res.ExecutedTotal += tr.Executed
		res.CommittedTotal += tr.Committed
	}
	return res
}

// covered reports whether every thread's committed count reached its
// per-thread target.
func covered(c *pipeline.Core, target func(tid int) uint64) bool {
	for tid := 0; tid < c.NumThreads(); tid++ {
		if c.Committed(tid) < target(tid) {
			return false
		}
	}
	return true
}

// stepBlock advances the machine 256 cycles: stepping in small blocks
// keeps the coverage check off the per-cycle path.
func stepBlock(c *pipeline.Core) {
	for i := 0; i < 256; i++ {
		c.Step()
	}
}

// perCycle divides a window's event count by its cycle count, 0 for an
// empty window.
func perCycle(n, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(n) / float64(cycles)
}

// Reference returns the single-thread run behind the fairness metric's
// IPC_ST (eq. 2) for one benchmark of an SMT run on cfg: the benchmark
// alone, on the same machine under the baseline policy. Per Luo et al.,
// the reference processor is the baseline machine (ICOUNT, no runahead),
// identical for every policy being compared — but it shares the SMT
// run's geometry, seed and trace length, or the speedup would compare
// different machines or even different instruction streams.
func Reference(cfg Config, benchmark string) (workload.Workload, Config) {
	cfg.Policy = PolicyICount
	return workload.Workload{Group: "ST", Benchmarks: []string{benchmark}}, cfg
}

// RunSingle measures one benchmark running alone: the Reference run.
func RunSingle(cfg Config, benchmark string) (*Result, error) {
	w, ref := Reference(cfg, benchmark)
	return Run(ref, w)
}
