// Command smtsim runs one multiprogrammed workload on the simulated SMT
// processor and prints per-thread statistics — the equivalent of one
// SMTSIM invocation in the paper's methodology. The cell runs as a
// one-point scenario on an experiments session, the engine behind the
// figures and smtsimd, which validates it and runs its fairness references.
//
// The per-thread L2miss/kinst column is demand loads served by memory per
// thousand committed instructions (core.ThreadResult.L2MissLoads). A load
// that merges into an outstanding MSHR counts; stores and instruction
// fetches do not. So it is not an L2 line-miss rate.
//
// Usage:
//
//	smtsim -threads art,mcf -policy RaT
//	smtsim -threads art,mcf,swim,twolf -policy FLUSH -tracelen 30000
//	smtsim -list                      # show available benchmarks/policies
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	threads := flag.String("threads", "art,mcf", "comma-separated benchmark names (1-8 threads)")
	policy := flag.String("policy", "RaT", "fetch/resource policy")
	traceLen := flag.Int("tracelen", 20000, "per-thread trace length")
	seed := flag.Uint64("seed", 1, "workload seed")
	regs := flag.Int("regs", 0, "override INT/FP physical register file size")
	fair := flag.Bool("fairness", false, "also run single-thread references and report fairness")
	workers := flag.Int("j", 0, "concurrent simulations (the -fairness reference runs; 0 = all cores)")
	list := flag.Bool("list", false, "list benchmarks and policies, then exit")
	flag.Parse()
	rejectNegative("tracelen", "regs", "j")

	if *list {
		fmt.Println("benchmarks:", strings.Join(trace.Names(), " "))
		var pols []string
		for _, p := range core.AllPolicies() {
			pols = append(pols, string(p))
		}
		fmt.Println("policies:  ", strings.Join(pols, " "))
		return
	}

	// The machine is core.DefaultConfig, its cycle limit included, with
	// the flags applied: not the session's figure base.
	maxCycles := core.DefaultConfig().MaxCycles
	sp := &scenario.Spec{
		Name:      "smtsim",
		Workloads: scenario.WorkloadSpec{Adhoc: []string{"custom/" + strings.ReplaceAll(*threads, ",", "+")}},
		Base:      scenario.Delta{Policy: policy, TraceLen: traceLen, Seed: seed, MaxCycles: &maxCycles},
		Metrics:   []string{"throughput"},
	}
	if *regs > 0 {
		sp.Base.Regs = regs
	}
	if *fair {
		sp.Metrics = append(sp.Metrics, "fairness")
	}

	// The session's pool bounds everything this invocation simulates by
	// -j, and Ctrl-C stops queued work (the -fairness references) at once.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	opt := experiments.Default()
	opt.Workers = *workers
	sess, err := experiments.NewSession(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rs, err := sess.RunScenarioCtx(ctx, sp)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "smtsim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res := rs.Result(0, 0)

	fmt.Printf("workload %s under %s: %d cycles (measurement window)\n\n",
		res.Workload, res.Policy, res.Cycles)
	tb := report.NewTable("per-thread results",
		"thread", "benchmark", "committed", "IPC", "L2miss/kinst",
		"RA-episodes", "prefetches", "regs(norm)", "regs(RA)")
	for i, t := range res.Threads {
		missPerK := 0.0
		if t.Committed > 0 {
			missPerK = 1000 * float64(t.L2MissLoads) / float64(t.Committed)
		}
		tb.AddRow(
			fmt.Sprintf("%d", i), t.Benchmark,
			fmt.Sprintf("%d", t.Committed),
			report.F(t.IPC),
			fmt.Sprintf("%.1f", missPerK),
			fmt.Sprintf("%d", t.RunaheadEpisodes),
			fmt.Sprintf("%d", t.PrefetchesIssued),
			fmt.Sprintf("%.0f", t.RegsNormal),
			fmt.Sprintf("%.0f", t.RegsRunahead),
		)
	}
	fmt.Println(tb.String())
	fmt.Printf("throughput (avg IPC): %s\n", report.F(rs.Value(0, 0, 0)))
	fmt.Printf("executed instructions (energy proxy): %d\n", res.ExecutedTotal)
	if res.Truncated {
		fmt.Println("warning: run truncated at the cycle limit before FAME coverage")
	}
	if *fair {
		fmt.Printf("fairness (vs single-thread ICOUNT): %s\n", report.F(rs.Value(0, 0, 1)))
	}
}

// rejectNegative exits 2 naming the first of the given flags that holds
// a negative value: no size, count or bound means anything below zero,
// and reading one as 0 or as the default would hide the mistake.
func rejectNegative(names ...string) {
	for _, name := range names {
		if v := flag.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			fmt.Fprintf(os.Stderr, "invalid value %s for flag -%s: must not be negative\n", v, name)
			os.Exit(2)
		}
	}
}
