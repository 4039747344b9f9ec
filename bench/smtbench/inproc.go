package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// Figures workload scale: experiments.Quick() cut to one workload per
// Table 2 group and 3000-instruction traces, so a session regenerates
// Table 1/2 and Fig1-Fig6 in a few seconds and a timed phase holds
// several sessions.
const (
	figPerGroup = 1
	figTraceLen = 3000
)

func figureOptions(seed uint64, workers int) experiments.Options {
	opt := experiments.Quick()
	opt.PerGroup = figPerGroup
	opt.TraceLen = figTraceLen
	opt.Seed = seed
	opt.Workers = workers
	return opt
}

func setupFigures(seed uint64) error {
	_, err := experiments.NewSession(figureOptions(seed, runtime.NumCPU()))
	return err
}

// figureSet is one session's regenerated figures.
type figureSet struct {
	f1, f2 *experiments.PolicyFigure
	f3     *experiments.Fig3Result
	f4     *experiments.Fig4Result
	f5     *experiments.Fig5Result
	f6     *experiments.Fig6Result
	text   string
}

// regenerate produces Table 1/2 and Fig1-Fig6 on s, recording one row per
// figure and a span around each.
func regenerate(ctx context.Context, s *experiments.Session, sp *spans, root, req int, o *op, figDur *[6]time.Duration) (*figureSet, error) {
	fs := &figureSet{text: experiments.Table1() + experiments.Table2()}
	steps := []func() (fmt.Stringer, error){
		func() (r fmt.Stringer, err error) { fs.f1, err = s.Fig1(ctx); return fs.f1, err },
		func() (r fmt.Stringer, err error) { fs.f2, err = s.Fig2(ctx); return fs.f2, err },
		func() (r fmt.Stringer, err error) { fs.f3, err = s.Fig3(ctx); return fs.f3, err },
		func() (r fmt.Stringer, err error) { fs.f4, err = s.Fig4(ctx); return fs.f4, err },
		func() (r fmt.Stringer, err error) { fs.f5, err = s.Fig5(ctx); return fs.f5, err },
		func() (r fmt.Stringer, err error) { fs.f6, err = s.Fig6(ctx); return fs.f6, err },
	}
	for i, step := range steps {
		t0 := time.Now()
		id := sp.start(fmt.Sprintf("experiments.fig%d", i+1), root, req)
		r, err := step()
		sp.end(id)
		if err != nil {
			return nil, fmt.Errorf("fig%d: %w", i+1, err)
		}
		figDur[i] += time.Since(t0)
		o.rows = append(o.rows, time.Since(o.start))
		fs.text += r.String()
	}
	return fs, nil
}

// check asserts the paper's headline orderings on the memory-bound groups
// and that every reported value is finite.
func (fs *figureSet) check() error {
	for _, g := range []string{"MEM2", "MEM4"} {
		t1, t2 := fs.f1.Throughput[g], fs.f2.Throughput[g]
		for _, p := range []core.PolicyKind{core.PolicyICount, core.PolicySTALL, core.PolicyFLUSH} {
			if !(t1[core.PolicyRaT] > t1[p]) {
				return fmt.Errorf("fig1 %s: RaT %v not above %s %v", g, t1[core.PolicyRaT], p, t1[p])
			}
		}
		for _, p := range []core.PolicyKind{core.PolicyDCRA, core.PolicyHillClimbing} {
			if !(t2[core.PolicyRaT] > t2[p]) {
				return fmt.Errorf("fig2 %s: RaT %v not above %s %v", g, t2[core.PolicyRaT], p, t2[p])
			}
		}
		rat, flush := fs.f6.Throughput[g][192][core.PolicyRaT], fs.f6.Throughput[g][320][core.PolicyFLUSH]
		if !(rat >= flush) {
			return fmt.Errorf("fig6 %s: RaT@192 %v below FLUSH@320 %v", g, rat, flush)
		}
	}
	var vals []float64
	for _, f := range []*experiments.PolicyFigure{fs.f1, fs.f2} {
		for _, m := range []map[string]map[core.PolicyKind]float64{f.Throughput, f.Fairness} {
			for _, row := range m {
				for _, v := range row {
					vals = append(vals, v)
				}
			}
		}
	}
	for _, row := range fs.f3.ED2 {
		for _, v := range row {
			vals = append(vals, v)
		}
	}
	for _, m := range []map[string]float64{fs.f4.Prefetching, fs.f4.ResourceAvailability, fs.f4.Overhead, fs.f5.Normal, fs.f5.Runahead} {
		for _, v := range m {
			vals = append(vals, v)
		}
	}
	for _, bySize := range fs.f6.Throughput {
		for _, row := range bySize {
			for _, v := range row {
				vals = append(vals, v)
			}
		}
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("figure value %v is not finite", v)
		}
	}
	return nil
}

// policyFigureSpec is the sweep behind Figures 1 and 2 on the figures
// workload's selection; run on a session that regenerated the figures it
// is served entirely from the session cache.
func policyFigureSpec(name string, pols ...core.PolicyKind) *scenario.Spec {
	return &scenario.Spec{
		Name:      name,
		Workloads: scenario.WorkloadSpec{Groups: workload.Groups(), PerGroup: figPerGroup},
		Axes:      []scenario.Axis{policyAxis(pols...)},
		Metrics:   []string{"throughput", "fairness"},
	}
}

func policyAxis(pols ...core.PolicyKind) scenario.Axis {
	ax := scenario.Axis{Name: "policy"}
	for _, p := range pols {
		name := string(p)
		ax.Points = append(ax.Points, scenario.Point{Label: name, Delta: scenario.Delta{Policy: &name}})
	}
	return ax
}

func runFigures(ctx context.Context, e *env) (*phase, error) {
	p := &phase{extra: map[string]float64{}}
	var err error
	if p.setups, err = probeSetups(ctx, e); err != nil {
		return nil, err
	}
	var (
		want   string
		last   *experiments.Session
		figDur [6]time.Duration
		busy   time.Duration
		stats  struct{ hits, misses, batched, traceHits, traceMisses, generated uint64 }
	)
	resetPeakRSS()
	cpu0 := selfCPU()
	p.wall, p.steal = e.timed(1, func(int, time.Time) bool {
		req := len(p.ops) + 1
		o, opCPU := op{start: time.Now()}, selfCPU()
		root := e.spans.start("session", 0, req)
		s, err := experiments.NewSession(figureOptions(e.seed, e.nproc))
		if err != nil {
			p.check(err)
			return false
		}
		fs, err := regenerate(ctx, s, e.spans, root, req, &o, &figDur)
		e.spans.end(root)
		o.total = time.Since(o.start)
		if err != nil {
			p.check(err)
			return ctx.Err() == nil
		}
		busy += o.total
		p.ops = append(p.ops, o)
		cs, ts := s.CacheStats(), s.TraceStats()
		_, batched := s.BatchStats()
		stats.hits += cs.Hits
		stats.misses += cs.Misses
		stats.batched += batched
		stats.traceHits += ts.Hits
		stats.traceMisses += ts.Misses
		stats.generated += ts.Generated
		p.delivered += int(cs.Misses)
		p.cpuSamples = append(p.cpuSamples, ms(selfCPU()-opCPU)/float64(cs.Misses))
		if err := fs.check(); err != nil {
			p.check(err)
		} else if want != "" && fs.text != want {
			p.check(fmt.Errorf("session %d figures differ from session 1", req))
		} else {
			p.check(nil)
		}
		if want == "" {
			want = fs.text
		}
		last = s
		return ctx.Err() == nil
	})
	p.cpu = selfCPU() - cpu0
	p.rssMB, _ = peakRSSMB("self")
	if last == nil {
		return nil, fmt.Errorf("no figure session completed")
	}
	for i, d := range figDur {
		p.extra[fmt.Sprintf("experiments.fig%d_pct", i+1)] = 100 * d.Seconds() / busy.Seconds()
	}
	p.extra["experiments.worker_util"] = p.cpu.Seconds() / (p.wall.Seconds() * float64(e.nproc))
	p.extra["experiments.batched_cell_frac"] = ratio(stats.batched, stats.misses)
	p.extra["simcache.hit_ratio"] = ratio(stats.hits, stats.hits+stats.misses)
	p.extra["tracestore.hit_ratio"] = ratio(stats.traceHits, stats.traceHits+stats.traceMisses)
	p.extra["tracestore.generated_per_op"] = float64(stats.generated) / float64(len(p.ops))

	// The Fig1/Fig2 grids, replayed from the last session's cache, are
	// the model metrics' and layer microbenchmarks' inputs.
	for _, sp := range []*scenario.Spec{
		policyFigureSpec("fig1", core.PolicyICount, core.PolicySTALL, core.PolicyFLUSH, core.PolicyRaT),
		policyFigureSpec("fig2", core.PolicyICount, core.PolicyDCRA, core.PolicyHillClimbing, core.PolicyRaT),
	} {
		rs, err := last.RunScenarioCtx(ctx, sp)
		if err != nil {
			return nil, err
		}
		p.addSet(sp, rs)
	}
	return p, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Sim workload scale: PerGroup workloads of each of the two groups under
// ICOUNT, FLUSH and RaT, with simTraceLen-instruction traces. One pass is
// the operation; a timed phase holds several.
const (
	simPerGroup = 4
	simTraceLen = 3000
)

// simSpec is the sweep a sim workload loops over. Only its grid is used:
// the bench runs each cell itself.
func simSpec(name string, seed uint64) *scenario.Spec {
	groups := []string{"MEM2", "MEM4"}
	if name == "sim-ilp" {
		groups = []string{"ILP2", "ILP4"}
	}
	tl := simTraceLen
	return &scenario.Spec{
		Name:      name,
		Workloads: scenario.WorkloadSpec{Groups: groups, PerGroup: simPerGroup},
		Base:      scenario.Delta{TraceLen: &tl, Seed: &seed},
		Axes:      []scenario.Axis{policyAxis(core.PolicyICount, core.PolicyFLUSH, core.PolicyRaT)},
		Metrics:   []string{"throughput", "l2mpki"},
	}
}

// simSweep is a sim workload's grid.
type simSweep struct {
	name   string
	spec   *scenario.Spec
	ws     []workload.Workload
	combos []scenario.Combo
}

func newSimSweep(name string, seed uint64) (*simSweep, error) {
	sp := simSpec(name, seed)
	ws, err := sp.Workloads.Select()
	if err != nil {
		return nil, err
	}
	combos, err := sp.Combos(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &simSweep{name: name, spec: sp, ws: ws, combos: combos}, nil
}

func setupSim(name string) func(seed uint64) error {
	return func(seed uint64) error {
		_, err := newSimSweep(name, seed)
		return err
	}
}

// pass runs every cell once on this goroutine over a fresh trace tier:
// the workload's traces are generated at its first cell and shared by the
// rest, as a session would.
func (sw *simSweep) pass(sp *spans, req int) (op, [][]*core.Result, tracestore.Stats, error) {
	o := op{start: time.Now()}
	root := sp.start("pass", 0, req)
	defer sp.end(root)
	ts := tracestore.New(0)
	out := make([][]*core.Result, len(sw.ws))
	for wi, w := range sw.ws {
		out[wi] = make([]*core.Result, len(sw.combos))
		for ci, c := range sw.combos {
			id := sp.start("workload.TracesVia", root, req)
			_, err := w.TracesVia(ts, c.Config.TraceLen, c.Config.Seed)
			sp.end(id)
			if err != nil {
				return o, nil, ts.Stats(), err
			}
			id = sp.start("core.RunTraced", root, req)
			res, err := core.RunTraced(c.Config, w, ts)
			sp.end(id)
			if err != nil {
				return o, nil, ts.Stats(), fmt.Errorf("%s under %s: %w", w.Name(), c.Config.Policy, err)
			}
			out[wi][ci] = res
			o.rows = append(o.rows, time.Since(o.start))
		}
	}
	o.total = time.Since(o.start)
	return o, out, ts.Stats(), nil
}

// check asserts a pass's results: no truncated cell, finite IPCs, and per
// group the policy ordering the workload exists to show. On sim-mem RaT's
// summed throughput beats ICOUNT and FLUSH; on sim-ilp it stays within 5%
// of ICOUNT.
func (sw *simSweep) check(res [][]*core.Result) error {
	sum := map[string]map[core.PolicyKind]float64{}
	for wi, w := range sw.ws {
		if sum[w.Group] == nil {
			sum[w.Group] = map[core.PolicyKind]float64{}
		}
		for ci, c := range sw.combos {
			r := res[wi][ci]
			if r.Truncated {
				return fmt.Errorf("%s under %s truncated", w.Name(), c.Config.Policy)
			}
			for _, ipc := range r.IPCs() {
				if math.IsNaN(ipc) || math.IsInf(ipc, 0) {
					return fmt.Errorf("%s under %s: IPC %v", w.Name(), c.Config.Policy, ipc)
				}
				sum[w.Group][c.Config.Policy] += ipc
			}
		}
	}
	for _, g := range sw.spec.Workloads.Groups {
		t := sum[g]
		rat, ic := t[core.PolicyRaT], t[core.PolicyICount]
		if sw.name == "sim-ilp" {
			if math.Abs(rat/ic-1) > 0.05 {
				return fmt.Errorf("%s: RaT %v more than 5%% from ICOUNT %v", g, rat, ic)
			}
			continue
		}
		if !(rat > ic && rat > t[core.PolicyFLUSH]) {
			return fmt.Errorf("%s: RaT %v not above ICOUNT %v and FLUSH %v", g, rat, ic, t[core.PolicyFLUSH])
		}
	}
	return nil
}

func runSim(name string) func(ctx context.Context, e *env) (*phase, error) {
	return func(ctx context.Context, e *env) (*phase, error) {
		p := &phase{extra: map[string]float64{}}
		var err error
		if p.setups, err = probeSetups(ctx, e); err != nil {
			return nil, err
		}
		sw, err := newSimSweep(name, e.seed)
		if err != nil {
			return nil, err
		}
		var (
			first                [][]*core.Result
			traceHits, traceAll  uint64
			generated, committed uint64
		)
		resetPeakRSS()
		cpu0 := selfCPU()
		p.wall, p.steal = e.timed(1, func(int, time.Time) bool {
			opCPU := selfCPU()
			o, res, ts, err := sw.pass(e.spans, len(p.ops)+1)
			opCPU = selfCPU() - opCPU
			traceHits += ts.Hits
			traceAll += ts.Hits + ts.Misses
			generated += ts.Generated
			if err != nil {
				p.check(err)
				return ctx.Err() == nil
			}
			p.ops = append(p.ops, o)
			for _, row := range res {
				for _, r := range row {
					committed += r.CommittedTotal
				}
			}
			n := len(sw.ws) * len(sw.combos)
			p.delivered += n
			p.cpuSamples = append(p.cpuSamples, ms(opCPU)/float64(n))
			if err := sw.check(res); err != nil {
				p.check(err)
			} else if first != nil && !reflect.DeepEqual(res, first) {
				p.check(fmt.Errorf("pass %d results differ from pass 1", len(p.ops)))
			} else {
				p.check(nil)
			}
			if first == nil {
				first = res
			}
			return ctx.Err() == nil
		})
		p.cpu = selfCPU() - cpu0
		p.rssMB, _ = peakRSSMB("self")
		if first == nil {
			return nil, fmt.Errorf("no pass completed")
		}
		p.extra["sim.minst_per_cpu_s"] = float64(committed) / 1e6 / p.cpu.Seconds()
		p.extra["experiments.worker_util"] = p.cpu.Seconds() / p.wall.Seconds()
		p.extra["tracestore.hit_ratio"] = ratio(traceHits, traceAll)
		p.extra["tracestore.generated_per_op"] = float64(generated) / float64(len(p.ops))
		p.addGrid(sw.spec, sw.ws, sw.combos, first)
		return p, nil
	}
}
