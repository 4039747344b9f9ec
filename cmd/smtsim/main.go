// Command smtsim runs one multiprogrammed workload on the simulated SMT
// processor and prints per-thread statistics — the equivalent of one
// SMTSIM invocation in the paper's methodology.
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
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
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

	w := workload.Workload{Group: "custom", Benchmarks: strings.Split(*threads, ",")}
	if err := w.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "%v (try -list)\n", err)
		os.Exit(1)
	}
	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}

	cfg := core.DefaultConfig()
	cfg.Policy = pol
	cfg.TraceLen = *traceLen
	cfg.Seed = *seed
	if *regs > 0 {
		cfg.Pipeline.IntRegs = *regs
		cfg.Pipeline.FPRegs = *regs
	}

	// The run executes through an experiments session — the same pool and
	// cancellation machinery the figure harness and the daemon use — so
	// Ctrl-C stops queued work (the -fairness reference runs) immediately
	// and the -j bound covers everything this invocation simulates.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	opt := experiments.Default()
	opt.Workers = *workers
	sess, err := experiments.NewSession(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fail := func(err error) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "smtsim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	res, err := sess.RunConfigCtx(ctx, w, cfg)
	if err != nil {
		fail(err)
	}

	fmt.Printf("workload %s under %s: %d cycles (measurement window)\n\n",
		w.Name(), res.Policy, res.Cycles)
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
	fmt.Printf("throughput (avg IPC): %s\n", report.F(metrics.Throughput(res.IPCs())))
	fmt.Printf("executed instructions (energy proxy): %d\n", res.ExecutedTotal)
	if res.Truncated {
		fmt.Println("warning: run truncated at the cycle limit before FAME coverage")
	}

	if *fair {
		// Queue every reference before waiting on any: the session pool
		// runs up to -j of them concurrently, and a Ctrl-C abandons the
		// ones no worker has picked up yet.
		for _, b := range w.Benchmarks {
			rw, rcfg := core.Reference(cfg, b)
			sess.StartRunCtx(ctx, rw, rcfg)
		}
		stv := make([]float64, 0, len(w.Benchmarks))
		for _, b := range w.Benchmarks {
			rw, rcfg := core.Reference(cfg, b)
			ref, err := sess.RunConfigCtx(ctx, rw, rcfg)
			if err != nil {
				fail(err)
			}
			stv = append(stv, ref.Threads[0].IPC)
		}
		fmt.Printf("fairness (vs single-thread ICOUNT): %s\n",
			report.F(metrics.Fairness(stv, res.IPCs())))
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
