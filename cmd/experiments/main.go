// Command experiments regenerates the paper's tables and figures, and
// runs declarative scenario sweeps.
//
// Usage:
//
//	experiments -fig all            # everything (slow: full Table 2 suite)
//	experiments -fig fig1 -quick    # Figure 1 on a reduced suite
//	experiments -fig table1         # print the baseline configuration
//
//	# Arbitrary machine-design sweeps from a JSON spec (any core.Config
//	# knob — ROB size, cache latency, width ... — not just the paper's
//	# policy and register axes):
//	experiments -scenario examples/scenarios/rob-sweep.json -format json
//	experiments -scenario examples/scenarios/l2-latency.json -format csv -quick
//
// Figure output is plain text shaped like the paper's figures.
// Scenario output renders as an aligned table, JSON, or CSV (-format,
// falling back to the spec's "format" field).
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
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	fig := flag.String("fig", "all", "what to produce: table1, table2, fig1..fig6, or all")
	scenarioPath := flag.String("scenario", "", "run a scenario spec (JSON file) instead of figures")
	format := flag.String("format", "", "scenario output format: table, json, csv or ndjson (default: the spec's format field, then table)")
	quick := flag.Bool("quick", false, "reduced suite (3 workloads/group, shorter traces)")
	traceLen := flag.Int("tracelen", 0, "override per-thread trace length")
	perGroup := flag.Int("pergroup", 0, "override workloads per group (0 = all)")
	seed := flag.Uint64("seed", 1, "experiment seed")
	groups := flag.String("groups", "", "comma-separated group filter (e.g. MEM2,MEM4)")
	workers := flag.Int("j", 0, "concurrent simulations (0 = all cores)")
	storeDir := flag.String("store-dir", "", "persistent on-disk result store directory (empty = disabled); repeated runs over one directory skip already-simulated cells")
	storeBytes := flag.Int64("store-bytes", 0, "on-disk result store byte bound (0 = unbounded)")
	traceDir := flag.String("trace-dir", "", "persistent on-disk trace store directory (empty = disabled); repeated runs skip trace regeneration")
	traceBytes := flag.Int64("trace-bytes", 0, "on-disk trace store byte bound (0 = unbounded)")
	flag.Parse()

	// Record which flags the user actually set: defaults must not clobber
	// values a scenario spec provides (the -seed default of 1, applied
	// unconditionally, used to overwrite any spec seed).
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
	}
	if *traceLen > 0 {
		opt.TraceLen = *traceLen
	}
	if *perGroup > 0 {
		opt.PerGroup = *perGroup
	}
	if *groups != "" {
		opt.Groups = strings.Split(*groups, ",")
	}
	if set["seed"] {
		opt.Seed = *seed
	}
	opt.Workers = *workers
	opt.StoreDir = *storeDir
	opt.StoreBytes = *storeBytes
	opt.TraceDir = *traceDir
	opt.TraceBytes = *traceBytes

	// Ctrl-C / SIGTERM cancels the session context: queued simulations are
	// never started, running ones finish, and the harness exits promptly
	// instead of completing the whole grid.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fail := func(err error) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *scenarioPath != "" {
		sp, err := scenario.Load(*scenarioPath)
		if err != nil {
			fail(err)
		}
		// Explicit flags outrank the spec; the spec outranks harness
		// defaults (the session base picks up the spec's measurement
		// deltas through scenario.Spec.Base).
		if set["seed"] {
			sp.Base.Seed = nil
		}
		if set["tracelen"] {
			sp.Base.TraceLen = nil
		}
		if sp.Workloads.PerGroup == 0 {
			// Harness suite reduction (-quick's 3/group) applies when the
			// spec does not pin its own truncation.
			sp.Workloads.PerGroup = opt.PerGroup
		}
		if set["pergroup"] {
			sp.Workloads.PerGroup = *perGroup
		}
		if set["groups"] {
			sp.Workloads.Groups = opt.Groups
		}
		s, err := experiments.NewSession(opt)
		if err != nil {
			fail(err)
		}
		rs, err := s.RunScenarioCtx(ctx, sp)
		if err != nil {
			fail(err)
		}
		f := *format
		if f == "" {
			f = sp.Format
		}
		if err := rs.Emit(os.Stdout, f); err != nil {
			fail(err)
		}
		return
	}

	s, err := experiments.NewSession(opt)
	if err != nil {
		fail(err)
	}
	want := strings.ToLower(*fig)
	all := want == "all"

	emit := func(name string, f func() (fmt.Stringer, error)) {
		if !all && want != name {
			return
		}
		start := time.Now()
		r, err := f()
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "experiments: interrupted")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(r.String())
		fmt.Printf("[%s regenerated in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if all || want == "table1" {
		fmt.Println(experiments.Table1())
	}
	if all || want == "table2" {
		fmt.Println(experiments.Table2())
	}
	emit("fig1", func() (fmt.Stringer, error) { return s.Fig1(ctx) })
	emit("fig2", func() (fmt.Stringer, error) { return s.Fig2(ctx) })
	emit("fig3", func() (fmt.Stringer, error) { return s.Fig3(ctx) })
	emit("fig4", func() (fmt.Stringer, error) { return s.Fig4(ctx) })
	emit("fig5", func() (fmt.Stringer, error) { return s.Fig5(ctx) })
	emit("fig6", func() (fmt.Stringer, error) { return s.Fig6(ctx) })
}
