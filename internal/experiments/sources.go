package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig4Result holds Figure 4: the decomposition of RaT's benefit into
// prefetching, resource availability, and speculative-work overhead (§6.1).
type Fig4Result struct {
	Groups []string
	// Prefetching is RaT's improvement over RaT-without-prefetching —
	// the benefit attributable to the prefetches themselves, measured with
	// identical runahead periods per the paper's methodology.
	Prefetching map[string]float64
	// ResourceAvailability is the improvement of RaT-without-fetch (enter
	// runahead, release resources, fetch nothing new) over ICOUNT — the
	// benefit of early resource release alone.
	ResourceAvailability map[string]float64
	// Overhead is the worst-case interference: how much the *other*
	// threads slow down when a thread runs ahead without prefetching
	// (useless speculative work only). Positive = degradation.
	Overhead map[string]float64
}

// Fig4 reproduces Figure 4's three experiments.
func (s *Session) Fig4(ctx context.Context) (*Fig4Result, error) {
	// Axis order fixes the combo index of each policy below.
	pols := []core.PolicyKind{core.PolicyRaT, core.PolicyRaTNoPrefetch,
		core.PolicyRaTNoFetch, core.PolicyICount}
	const iRat, iNoPf, iNoFetch, iIC = 0, 1, 2, 3
	rs, err := s.RunScenarioCtx(ctx, s.figureSpec("Figure 4", []string{"throughput"}, policyAxis(pols)))
	if err != nil {
		return nil, err
	}
	f := &Fig4Result{
		Groups:               s.opt.groups(),
		Prefetching:          map[string]float64{},
		ResourceAvailability: map[string]float64{},
		Overhead:             map[string]float64{},
	}
	for _, g := range f.Groups {
		var pref, avail, over []float64
		groupRows(rs, g, func(wi int, w workload.Workload) {
			tRat := rs.Value(wi, iRat, 0)
			tNoPf := rs.Value(wi, iNoPf, 0)
			tNoFetch := rs.Value(wi, iNoFetch, 0)
			tIC := rs.Value(wi, iIC, 0)
			if tNoPf > 0 {
				pref = append(pref, tRat/tNoPf-1)
			}
			if tIC > 0 {
				avail = append(avail, tNoFetch/tIC-1)
			}
			// Overhead: degradation of the non-MEM co-runners under
			// useless runahead (no prefetching) vs ICOUNT.
			icount, noPf := rs.Result(wi, iIC), rs.Result(wi, iNoPf)
			for i := range w.Benchmarks {
				// NewSession validated every benchmark of the selection.
				if trace.MustLookup(w.Benchmarks[i]).Class == trace.ClassMEM {
					continue
				}
				a, b := icount.Threads[i].IPC, noPf.Threads[i].IPC
				if a > 0 {
					over = append(over, 1-b/a)
				}
			}
		})
		f.Prefetching[g] = metrics.Mean(pref)
		f.ResourceAvailability[g] = metrics.Mean(avail)
		f.Overhead[g] = metrics.Mean(over)
	}
	return f, nil
}

// String renders Figure 4.
func (f *Fig4Result) String() string {
	parts := []map[string]float64{f.Prefetching, f.ResourceAvailability, f.Overhead}
	return groupTable("Figure 4: sources of improvement of RaT", f.Groups,
		[]string{"prefetching", "resource-avail", "overhead"},
		func(g string, i int) string { return report.Pct(parts[i][g]) })
}

// Fig5Result holds Figure 5: average allocated physical registers per
// cycle, normal execution versus runahead mode.
type Fig5Result struct {
	Groups []string
	// Normal is the per-cycle register occupancy of normal-mode execution
	// (measured on the ICOUNT baseline, where every cycle is normal mode).
	Normal map[string]float64
	// Runahead is the occupancy during runahead-mode cycles on the RaT
	// machine — the "light consumer" the paper's §6.2 quantifies.
	Runahead map[string]float64
}

// Fig5 reproduces Figure 5.
func (s *Session) Fig5(ctx context.Context) (*Fig5Result, error) {
	const iIC, iRat = 0, 1
	rs, err := s.RunScenarioCtx(ctx, s.figureSpec("Figure 5", []string{"throughput"},
		policyAxis([]core.PolicyKind{core.PolicyICount, core.PolicyRaT})))
	if err != nil {
		return nil, err
	}
	f := &Fig5Result{Groups: s.opt.groups(), Normal: map[string]float64{}, Runahead: map[string]float64{}}
	for _, g := range f.Groups {
		var normal, ra []float64
		groupRows(rs, g, func(wi int, w workload.Workload) {
			icount, rat := rs.Result(wi, iIC), rs.Result(wi, iRat)
			for i := range w.Benchmarks {
				normal = append(normal, icount.Threads[i].RegsNormal)
				if rat.Threads[i].CyclesInRunahead > 0 {
					ra = append(ra, rat.Threads[i].RegsRunahead)
				}
			}
		})
		f.Normal[g] = metrics.Mean(normal)
		f.Runahead[g] = metrics.Mean(ra)
	}
	return f, nil
}

// String renders Figure 5.
func (f *Fig5Result) String() string {
	parts := []map[string]float64{f.Normal, f.Runahead}
	return groupTable("Figure 5: avg physical registers held per thread per cycle", f.Groups,
		[]string{"normal mode", "runahead mode"}, func(g string, i int) string { return report.F(parts[i][g]) })
}

// Fig6Result holds Figure 6: throughput as a function of physical register
// file size, FLUSH versus RaT.
type Fig6Result struct {
	Groups []string
	Sizes  []int
	// Throughput[group][size][policy].
	Throughput map[string]map[int]map[core.PolicyKind]float64
}

// Fig6 reproduces Figure 6, sweeping the register file from 64 to 320
// entries per file — a two-axis scenario (regs × policy). Points whose
// register size matches Table 1 share their simulations with the other
// figures: the cache keys by full configuration, not by which figure
// asked.
func (s *Session) Fig6(ctx context.Context) (*Fig6Result, error) {
	pols := []core.PolicyKind{core.PolicyFLUSH, core.PolicyRaT}
	rs, err := s.RunScenarioCtx(ctx, s.figureSpec("Figure 6", []string{"throughput"},
		regsAxis(s.opt.RegSizes), policyAxis(pols)))
	if err != nil {
		return nil, err
	}
	f := &Fig6Result{
		Groups:     s.opt.groups(),
		Sizes:      s.opt.RegSizes,
		Throughput: map[string]map[int]map[core.PolicyKind]float64{},
	}
	for _, g := range f.Groups {
		f.Throughput[g] = map[int]map[core.PolicyKind]float64{}
		for si, size := range f.Sizes {
			f.Throughput[g][size] = map[core.PolicyKind]float64{}
			for pi, p := range pols {
				ci := si*len(pols) + pi // regs axis is slowest-varying
				var thrus []float64
				groupRows(rs, g, func(wi int, _ workload.Workload) {
					thrus = append(thrus, rs.Value(wi, ci, 0))
				})
				f.Throughput[g][size][p] = metrics.Mean(thrus)
			}
		}
	}
	return f, nil
}

// String renders Figure 6: a FLUSH and a RaT column per register size.
func (f *Fig6Result) String() string {
	pols := []core.PolicyKind{core.PolicyFLUSH, core.PolicyRaT}
	var cols []string
	for _, size := range f.Sizes {
		cols = append(cols, fmt.Sprintf("FLUSH@%d", size), fmt.Sprintf("RaT@%d", size))
	}
	return groupTable("Figure 6: throughput vs physical register file size", f.Groups, cols,
		func(g string, i int) string { return report.F(f.Throughput[g][f.Sizes[i/2]][pols[i%2]]) })
}

// Table1 renders the baseline configuration (Table 1 of the paper) from
// the live defaults, so the printed table can never drift from the code.
func Table1() string {
	cfg := core.DefaultConfig().Pipeline
	tb := report.NewTable("Table 1: SMT processor baseline configuration", "parameter", "value")
	tb.AddRow("processor width", fmt.Sprintf("%d way", cfg.Width))
	tb.AddRow("fetch threads/cycle", fmt.Sprintf("%d", cfg.FetchThreads))
	tb.AddRow("reorder buffer", fmt.Sprintf("%d shared entries", cfg.ROBSize))
	tb.AddRow("INT/FP registers", fmt.Sprintf("%d / %d", cfg.IntRegs, cfg.FPRegs))
	tb.AddRow("INT/FP/LS issue queues", fmt.Sprintf("%d / %d / %d", cfg.IntIQ, cfg.FPIQ, cfg.LSIQ))
	tb.AddRow("INT/FP/LdSt units", fmt.Sprintf("%d / %d / %d", cfg.IntFU, cfg.FPFU, cfg.LSFU))
	tb.AddRow("branch predictor", fmt.Sprintf("perceptron, %d rows", cfg.BranchPredRows))
	tb.AddRow("icache", fmt.Sprintf("%dKB, %d-way, %d cyc", cfg.Mem.IL1.SizeBytes>>10, cfg.Mem.IL1.Ways, cfg.Mem.IL1.Latency))
	tb.AddRow("dcache", fmt.Sprintf("%dKB, %d-way, %d cyc", cfg.Mem.DL1.SizeBytes>>10, cfg.Mem.DL1.Ways, cfg.Mem.DL1.Latency))
	tb.AddRow("L2 cache", fmt.Sprintf("%dMB, %d-way, %d cyc", cfg.Mem.L2.SizeBytes>>20, cfg.Mem.L2.Ways, cfg.Mem.L2.Latency))
	tb.AddRow("line size", fmt.Sprintf("%d bytes", cfg.Mem.L2.LineBytes))
	tb.AddRow("main memory latency", fmt.Sprintf("%d cycles", cfg.Mem.MemLatency))
	return tb.String()
}

// Table2 renders the workload suite.
func Table2() string {
	tb := report.NewTable("Table 2: SMT simulation workloads", "group", "workloads")
	for _, g := range workload.Groups() {
		var names []string
		for _, w := range workload.MustByGroup(g) {
			names = append(names, strings.Join(w.Benchmarks, ","))
		}
		tb.AddRow(g, strings.Join(names, "  "))
	}
	return tb.String()
}
