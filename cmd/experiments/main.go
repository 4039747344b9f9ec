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
// Figure output is plain text shaped like the paper's figures, so
// -format without -scenario exits 2. Scenario output renders as an
// aligned table, JSON, or CSV (-format, falling back to the spec's
// "format" field).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
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
	flag.Parse()
	rejectNegative("tracelen", "pergroup", "j", "store-bytes")

	// Record which flags the user actually set: defaults must not clobber
	// values a scenario spec provides (the -seed default of 1, applied
	// unconditionally, used to overwrite any spec seed).
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// Figures print as text only; a -format they would ignore is a
	// mistake, as an unknown -fig is.
	if set["format"] && *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "experiments: -format applies only with -scenario (figures print as text)")
		os.Exit(2)
	}

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
		// A format the emitter would reject fails here, before the grid
		// simulates, as an unknown -fig does.
		if err := scenario.CheckFormat(*format); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -format: %v\n", err)
			os.Exit(2)
		}
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

	// outputs is the -fig menu in print order: the configuration tables
	// print as is, the figures are simulated and timed.
	var s *experiments.Session
	outputs := []struct {
		name  string
		table func() string
		fig   func() (fmt.Stringer, error)
	}{
		{name: "table1", table: experiments.Table1},
		{name: "table2", table: experiments.Table2},
		{name: "fig1", fig: func() (fmt.Stringer, error) { return s.Fig1(ctx) }},
		{name: "fig2", fig: func() (fmt.Stringer, error) { return s.Fig2(ctx) }},
		{name: "fig3", fig: func() (fmt.Stringer, error) { return s.Fig3(ctx) }},
		{name: "fig4", fig: func() (fmt.Stringer, error) { return s.Fig4(ctx) }},
		{name: "fig5", fig: func() (fmt.Stringer, error) { return s.Fig5(ctx) }},
		{name: "fig6", fig: func() (fmt.Stringer, error) { return s.Fig6(ctx) }},
	}
	want := strings.ToLower(*fig)
	all := want == "all"
	names := make([]string, 0, len(outputs))
	for _, o := range outputs {
		names = append(names, o.name)
	}
	if !all && !slices.Contains(names, want) {
		fmt.Fprintf(os.Stderr, "experiments: unknown -fig %q (valid: %s, all)\n", *fig, strings.Join(names, ", "))
		os.Exit(2)
	}

	var err error
	if s, err = experiments.NewSession(opt); err != nil {
		fail(err)
	}
	for _, o := range outputs {
		if !all && want != o.name {
			continue
		}
		if o.table != nil {
			fmt.Println(o.table())
			continue
		}
		start := time.Now()
		r, err := o.fig()
		if err != nil {
			fail(fmt.Errorf("%s: %w", o.name, err))
		}
		fmt.Println(r.String())
		fmt.Printf("[%s regenerated in %v]\n\n", o.name, time.Since(start).Round(time.Millisecond))
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
