package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/bench/internal/stat"
	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/regfile"
	"repro/internal/resultstore"
	"repro/internal/runahead"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/simcache"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// layerDef is a per-layer metric. only, when set, names the workloads it
// is measured on; elsewhere it reads 0. Every metric with a time unit is
// measured on every workload.
type layerDef struct {
	name, unit string
	only       string
}

const (
	figuresOnly = "figures"
	simsOnly    = "sim-mem sim-ilp"
	serveOnly   = "serve-cold serve-warm serve-disk"
	notSims     = "figures serve-cold serve-warm serve-disk"
)

// perLayer lists the metrics a traced run reports, in catalogue order.
var perLayer = func() []layerDef {
	var out []layerDef
	// Share of the bench process's CPU profile samples in the traced
	// timed phase, by the source file they fell in.
	for _, s := range shareNames {
		out = append(out, layerDef{"cpu_share." + s, "%", ""})
	}
	out = append(out,
		// Layer microbenchmarks on the workload's own inputs.
		layerDef{"pipeline.step_ns", "ns", ""},
		layerDef{"pipeline.step_allocs", "count", ""},
		layerDef{"mem.access_ns", "ns", ""},
		layerDef{"bpred.predict_update_ns", "ns", ""},
		layerDef{"regfile.alloc_release_ns", "ns", ""},
		layerDef{"trace.generate_ns_per_inst", "ns", ""},
		layerDef{"core.traces_ms", "ms", ""},
		layerDef{"core.run_ms_p50", "ms", ""},
		layerDef{"simcache.hit_ns", "ns", ""},
		layerDef{"sched.push_pop_ns", "ns", ""},
		layerDef{"resultstore.get_us", "us", ""},
		layerDef{"resultstore.put_us", "us", ""},
		layerDef{"scenario.encode_row_ns", "ns", ""},
		layerDef{"report.emit_us_per_row.json", "us", ""},
		layerDef{"report.emit_us_per_row.csv", "us", ""},
		layerDef{"report.emit_us_per_row.table", "us", ""},
		// The traced phase's operations as the client saw them.
		layerDef{"op.ttfr_p50_ms", "ms", ""},
		layerDef{"op.ttfr_tail_ms", "ms", ""},
		layerDef{"op.ttlr_tail_ms", "ms", ""},
		layerDef{"op.tail_pctile", "pctile", ""},
		// Counters of the layers the timed phase went through.
		layerDef{"experiments.fig1_pct", "%", figuresOnly},
		layerDef{"experiments.fig2_pct", "%", figuresOnly},
		layerDef{"experiments.fig3_pct", "%", figuresOnly},
		layerDef{"experiments.fig4_pct", "%", figuresOnly},
		layerDef{"experiments.fig5_pct", "%", figuresOnly},
		layerDef{"experiments.fig6_pct", "%", figuresOnly},
		layerDef{"experiments.worker_util", "ratio", ""},
		layerDef{"experiments.batched_cell_frac", "ratio", notSims},
		layerDef{"simcache.hit_ratio", "ratio", notSims},
		layerDef{"tracestore.hit_ratio", "ratio", ""},
		layerDef{"tracestore.generated_per_op", "1/op", ""},
		layerDef{"resultstore.disk_hit_ratio", "ratio", serveOnly},
		layerDef{"resultstore.write_errors", "count", serveOnly},
		layerDef{"sim.minst_per_cpu_s", "Minst/cpu_s", simsOnly},
		// Host context.
		layerDef{"host.steal_pct", "%", ""},
		layerDef{"host.op_p50_ms", "ms", ""},
		layerDef{"host.cells_per_s", "1/s", ""},
		layerDef{"host.setup_wall_s", "s", ""},
		layerDef{"host.nproc", "count", ""},
		layerDef{"host.goroutines_end", "count", ""},
		layerDef{"trace.overhead_pct", "%", ""},
		// The modelled machine: deterministic for a seed.
		layerDef{"model.cells", "count", ""},
		layerDef{"model.ipc_sum.ICOUNT", "ipc", ""},
		layerDef{"model.ipc_sum.FLUSH", "ipc", ""},
		layerDef{"model.ipc_sum.RaT", "ipc", ""},
		layerDef{"model.l2_mpki.ICOUNT", "mpki", ""},
		layerDef{"model.l2_mpki.FLUSH", "mpki", ""},
		layerDef{"model.l2_mpki.RaT", "mpki", ""},
		layerDef{"model.ra_episodes_per_kinst", "1/kinst", ""},
		layerDef{"model.truncated_cells", "count", ""},
		layerDef{"model.rat_gain_vs_static_pct", "%", ""},
		layerDef{"model.rat_gain_vs_dynamic_pct", "%", ""},
		layerDef{"model.rat_fairness_gain_vs_static_pct", "%", figuresOnly},
		layerDef{"model.rat_fairness_gain_vs_dynamic_pct", "%", figuresOnly},
	)
	return out
}()

// microBenchTime is each layer microbenchmark's target duration.
const microBenchTime = "100ms"

// tracedRepeat repeats the workload's timed phase with spans and a CPU
// profile, runs the layer microbenchmarks on the inputs that phase
// checked, and fills rep with the per-layer metrics. plain is the
// untraced phase, the base of the tracing overhead.
func tracedRepeat(ctx context.Context, w workloadDef, e *env, plain *phase, rep *report) error {
	dir := filepath.Join(e.out, "trace", w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	prof, err := os.Create(filepath.Join(dir, "cpu.prof"))
	if err != nil {
		return err
	}
	e.spans, e.prof = newSpans(), prof
	tr, err := w.run(ctx, e)
	sp := e.spans
	e.spans, e.prof = nil, nil
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := sp.writeJSON(filepath.Join(dir, "spans.json")); err != nil {
		return err
	}
	rep.Attempted += tr.attempted
	rep.Failed += tr.failed

	vals := map[string]float64{}
	for k, v := range tr.extra {
		vals[k] = v
	}
	shares, err := profileShares(ctx, prof.Name(), e.repo)
	if err != nil {
		return err
	}
	for k, v := range shares {
		vals["cpu_share."+k] = v
	}
	micro, err := microbenchmarks(ctx, e, tr)
	if err != nil {
		return err
	}
	for k, v := range micro {
		vals[k] = v
	}
	for k, v := range modelMetrics(tr.cells) {
		vals[k] = v
	}
	pct, ttlr := stat.Tail(tr.opMS(func(o op) time.Duration { return o.total }))
	_, ttfr := stat.Tail(tr.opMS(firstRow))
	vals["op.ttlr_tail_ms"], vals["op.ttfr_tail_ms"], vals["op.tail_pctile"] = ttlr, ttfr, pct
	vals["op.ttfr_p50_ms"] = stat.Median(tr.opMS(firstRow))
	vals["host.steal_pct"] = tr.steal
	vals["host.cells_per_s"] = float64(tr.delivered) / tr.wall.Seconds()
	vals["host.op_p50_ms"] = stat.Median(tr.opMS(func(o op) time.Duration { return o.total }))
	vals["host.setup_wall_s"] = tr.setupMedian(func(s setup) time.Duration { return s.wall })
	vals["host.nproc"] = float64(e.nproc)
	if _, ok := vals["host.goroutines_end"]; !ok {
		vals["host.goroutines_end"] = float64(runtime.NumGoroutine())
	}
	vals["trace.overhead_pct"] = 100 * (tr.cpuPerCell()/plain.cpuPerCell() - 1)

	for _, m := range perLayer {
		v, ok := vals[m.name]
		inScope := m.only == "" || strings.Contains(" "+m.only+" ", " "+w.name+" ")
		switch {
		case inScope && !ok:
			return fmt.Errorf("per-layer metric %s was not measured", m.name)
		case !inScope:
			v = 0
		}
		rep.Metrics[m.name] = metric{v, m.unit}
	}
	return nil
}

// sample returns up to n elements of xs, evenly spaced.
func sample[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// microbenchmarks times each layer on the inputs the traced phase
// checked: the traces of up to four of its workloads, up to six of its
// results, and its first result grid.
func microbenchmarks(ctx context.Context, e *env, p *phase) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchTime); err != nil {
		return nil, err
	}
	if len(p.cells) == 0 || len(p.grids) == 0 {
		return nil, fmt.Errorf("no checked results to feed the microbenchmarks")
	}
	out := map[string]float64{}

	// Trace generation through the tier, then simulation on the warm
	// tier, cell by cell.
	type input struct {
		w   workload.Workload
		cfg core.Config
		trs []*trace.Trace
	}
	seen := map[string]bool{}
	var distinct []cellResult
	for _, c := range p.cells {
		k := fmt.Sprintf("%s/%d/%d", c.w.Name(), c.cfg.TraceLen, c.cfg.Seed)
		if !seen[k] {
			seen[k] = true
			distinct = append(distinct, c)
		}
	}
	ts := tracestore.New(0)
	var inputs []input
	var genMS []float64
	for _, c := range sample(distinct, 4) {
		t0 := time.Now()
		trs, err := c.w.TracesVia(ts, c.cfg.TraceLen, c.cfg.Seed)
		if err != nil {
			return nil, err
		}
		genMS = append(genMS, ms(time.Since(t0)))
		inputs = append(inputs, input{c.w, c.cfg, trs})
	}
	out["core.traces_ms"] = stat.Median(genMS)
	cells := sample(p.cells, 6)
	var runMS []float64
	for _, c := range cells {
		if _, err := c.w.TracesVia(ts, c.cfg.TraceLen, c.cfg.Seed); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := core.RunTraced(c.cfg, c.w, ts); err != nil {
			return nil, err
		}
		runMS = append(runMS, ms(time.Since(t0)))
	}
	out["core.run_ms_p50"] = stat.Median(runMS)

	// The pipeline under RaT (ICOUNT fetch plus runahead), one core per
	// sampled workload, stepped round-robin.
	var cores []*pipeline.Core
	for _, in := range inputs {
		pcfg := in.cfg.Pipeline
		pcfg.Runahead = runahead.Default()
		c, err := pipeline.New(pcfg, in.trs, pipeline.ICount{})
		if err != nil {
			return nil, err
		}
		c.WarmupCaches()
		cores = append(cores, c)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cores[i%len(cores)].Step()
		}
	})
	out["pipeline.step_ns"] = float64(r.NsPerOp())
	out["pipeline.step_allocs"] = float64(r.AllocsPerOp())

	// The data side of the memory hierarchy, replaying the traces' loads
	// and stores in program order, threads interleaved, one access per
	// cycle, after the warm pass the simulator makes.
	type access struct {
		kind mem.Kind
		tid  int
		tr   *trace.Trace
		pos  uint64
	}
	var accs []access
	var branches []*isa.Inst
	for tid, t := range inputs[0].trs {
		for i := 0; i < t.Len(); i++ {
			inst := t.At(uint64(i))
			switch {
			case inst.Op.IsLoad():
				accs = append(accs, access{mem.KindLoad, tid, t, uint64(i)})
			case inst.Op.IsStore():
				accs = append(accs, access{mem.KindStore, tid, t, uint64(i)})
			case inst.Op.IsBranch():
				branches = append(branches, inst)
			}
		}
	}
	if len(accs) == 0 || len(branches) == 0 {
		return nil, fmt.Errorf("%s has no memory operations or no branches", inputs[0].w.Name())
	}
	hier := mem.NewHierarchy(inputs[0].cfg.Pipeline.Mem)
	for _, a := range accs {
		hier.Prewarm(a.kind, a.tid, a.tr.AddrAt(a.pos))
	}
	var now uint64
	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := &accs[int(now)%len(accs)]
			iter := now/uint64(len(accs)) + 1
			hier.Access(a.kind, a.tid, a.tr.AddrAt(a.pos+iter*uint64(a.tr.Len())), now)
			now++
		}
	})
	out["mem.access_ns"] = float64(r.NsPerOp())

	pred := bpred.NewPerceptron(inputs[0].cfg.Pipeline.BranchPredRows)
	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			br := branches[i%len(branches)]
			pred.Predict(br.PC)
			pred.Update(br.PC, br.Taken)
		}
	})
	out["bpred.predict_update_ns"] = float64(r.NsPerOp())

	// Rename-style allocation: each destination register is allocated in
	// program order and released once a window of later allocations (half
	// the file, at most the reorder buffer) has passed it.
	var dsts []int // thread of each destination-writing instruction
	for tid, t := range inputs[0].trs {
		for i := 0; i < t.Len(); i++ {
			if t.At(uint64(i)).HasDst() {
				dsts = append(dsts, tid)
			}
		}
	}
	rf := regfile.New("int", inputs[0].cfg.Pipeline.IntRegs)
	window := min(inputs[0].cfg.Pipeline.IntRegs/2, inputs[0].cfg.Pipeline.ROBSize)
	live := make([]regfile.PhysReg, window) // a ring of the allocated registers, oldest at head
	head, n := 0, 0
	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n == window {
				rf.Release(live[head])
				head, n = (head+1)%window, n-1
			}
			reg, ok := rf.Alloc(dsts[i%len(dsts)])
			if !ok {
				b.Fatal("register file exhausted")
			}
			live[(head+n)%window] = reg
			n++
		}
	})
	out["regfile.alloc_release_ns"] = float64(r.NsPerOp())

	type gen struct {
		p   trace.Profile
		opt trace.Options
	}
	var gens []gen
	for _, in := range inputs {
		for i, name := range in.w.Benchmarks {
			prof, err := trace.Find(name)
			if err != nil {
				return nil, err
			}
			gens = append(gens, gen{prof, workload.ContextOptions(i, in.cfg.TraceLen, in.cfg.Seed)})
		}
	}
	var genInsts int
	r = testing.Benchmark(func(b *testing.B) {
		genInsts = 0
		for i := 0; i < b.N; i++ {
			g := gens[i%len(gens)]
			if _, err := trace.Generate(g.p, g.opt); err != nil {
				b.Fatal(err)
			}
			genInsts += g.opt.Len
		}
	})
	out["trace.generate_ns_per_inst"] = float64(r.T.Nanoseconds()) / float64(genInsts)

	// The serving hit path: a lookup of a completed simulation.
	cache := simcache.New[string, *core.Result](0, 0, nil)
	call, _ := cache.BeginCtx(ctx, "cell")
	call.Fulfill(cells[0].res, nil)
	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, _ := cache.BeginCtx(ctx, "cell")
			if _, err := c.WaitCtx(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	out["simcache.hit_ns"] = float64(r.NsPerOp())

	// The fair scheduler with a steady queue of 16 jobs from two clients.
	q, err := sched.New[int](sched.PolicyFair)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 16; i++ {
		q.Push(sched.Job[int]{Requester: fmt.Sprint(i % 2), Cells: specCells, Payload: i})
	}
	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.Push(sched.Job[int]{Requester: "0", Cells: specCells, Payload: i})
			j, ok := q.Pop()
			if !ok {
				b.Fatal("empty queue")
			}
			q.Done(j)
		}
	})
	out["sched.push_pop_ns"] = float64(r.NsPerOp())

	dir, err := os.MkdirTemp(e.out, "resultstore-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := resultstore.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := cells[i%len(cells)]
			if err := store.Put(c.w.Name(), c.cfg, c.res); err != nil {
				b.Fatal(err)
			}
		}
	})
	out["resultstore.put_us"] = float64(r.NsPerOp()) / 1e3
	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := cells[i%len(cells)]
			if _, ok := store.Get(c.w.Name(), c.cfg); !ok {
				b.Fatal("stored result missing")
			}
		}
	})
	out["resultstore.get_us"] = float64(r.NsPerOp()) / 1e3

	g := p.grids[0]
	enc := scenario.NewRowEncoder(io.Discard, g.spec)
	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(g.rs.Rows[i%len(g.rs.Rows)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	out["scenario.encode_row_ns"] = float64(r.NsPerOp())
	for _, f := range []string{"json", "csv", "table"} {
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := g.rs.Emit(io.Discard, f); err != nil {
					b.Fatal(err)
				}
			}
		})
		out["report.emit_us_per_row."+f] = float64(r.NsPerOp()) / 1e3 / float64(len(g.rs.Rows))
	}
	return out, nil
}

// modelMetrics reduces the checked cells to statistics of the modelled
// machine. Cells repeated across grids count once.
func modelMetrics(cells []cellResult) map[string]float64 {
	out := map[string]float64{}
	seen := map[string]bool{}
	var distinct []cellResult
	for _, c := range cells {
		k := c.w.Name() + "\x00" + c.cfg.Canonical()
		if !seen[k] {
			seen[k] = true
			distinct = append(distinct, c)
		}
	}
	type agg struct{ ipc, misses, committed float64 }
	byPol := map[core.PolicyKind]*agg{}
	var episodes, committed float64
	truncated := 0
	for _, c := range distinct {
		a := byPol[c.cfg.Policy]
		if a == nil {
			a = &agg{}
			byPol[c.cfg.Policy] = a
		}
		a.ipc += metrics.Throughput(c.res.IPCs())
		for _, t := range c.res.Threads {
			a.misses += float64(t.L2MissLoads)
			episodes += float64(t.RunaheadEpisodes)
		}
		a.committed += float64(c.res.CommittedTotal)
		committed += float64(c.res.CommittedTotal)
		if c.res.Truncated {
			truncated++
		}
	}
	out["model.cells"] = float64(len(distinct))
	for _, p := range []core.PolicyKind{core.PolicyICount, core.PolicyFLUSH, core.PolicyRaT} {
		a := byPol[p]
		if a == nil {
			a = &agg{}
		}
		out["model.ipc_sum."+string(p)] = a.ipc
		out["model.l2_mpki."+string(p)] = 0
		if a.committed > 0 {
			out["model.l2_mpki."+string(p)] = 1000 * a.misses / a.committed
		}
	}
	out["model.ra_episodes_per_kinst"] = 0
	if committed > 0 {
		out["model.ra_episodes_per_kinst"] = 1000 * episodes / committed
	}
	out["model.truncated_cells"] = float64(truncated)

	static := []core.PolicyKind{core.PolicyICount, core.PolicySTALL, core.PolicyFLUSH}
	dynamic := []core.PolicyKind{core.PolicyDCRA, core.PolicyHillClimbing}
	thr := func(c cellResult) float64 { return metrics.Throughput(c.res.IPCs()) }
	fair := func(c cellResult) float64 { return c.fairness }
	out["model.rat_gain_vs_static_pct"] = ratGain(distinct, static, thr)
	out["model.rat_gain_vs_dynamic_pct"] = ratGain(distinct, dynamic, thr)
	out["model.rat_fairness_gain_vs_static_pct"] = ratGain(distinct, static, fair)
	out["model.rat_fairness_gain_vs_dynamic_pct"] = ratGain(distinct, dynamic, fair)
	return out
}

// ratGain is the paper's comparison: cells that differ only in policy
// form a set per workload group and machine; in each set with RaT and at
// least one policy of the class, RaT's group-mean value over the best
// class policy's, minus one; the mean over sets, in percent. Cells whose
// value is NaN (a metric the grid did not measure) are skipped; with no
// comparable set the gain is 0.
func ratGain(cells []cellResult, class []core.PolicyKind, value func(cellResult) float64) float64 {
	type key struct{ group, machine string }
	sums := map[key]map[core.PolicyKind][]float64{}
	var order []key
	for _, c := range cells {
		v := value(c)
		if math.IsNaN(v) {
			continue
		}
		cfg := c.cfg
		cfg.Policy = ""
		k := key{c.w.Group, cfg.Canonical()}
		if sums[k] == nil {
			sums[k] = map[core.PolicyKind][]float64{}
			order = append(order, k)
		}
		sums[k][c.cfg.Policy] = append(sums[k][c.cfg.Policy], v)
	}
	var gains []float64
	for _, k := range order {
		rat, ok := sums[k][core.PolicyRaT]
		if !ok {
			continue
		}
		best := math.Inf(-1)
		for _, p := range class {
			if vs, ok := sums[k][p]; ok {
				best = max(best, mean(vs))
			}
		}
		if best > 0 {
			gains = append(gains, mean(rat)/best-1)
		}
	}
	if len(gains) == 0 {
		return 0
	}
	return 100 * mean(gains)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
