// Command smtbench is the repository's benchmark: six closed-loop
// workloads that drive the simulator through its real entry points
// (experiments.Session figures, core.RunTraced sweeps, and a smtsimd
// daemon built from source and driven over HTTP), check every output, and
// report end-to-end and per-layer metrics.
//
//	bash bench/run.sh --workload sim-mem --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --seed 2 --json >> set.ndjson
//
// run.sh builds this command and execs it with -repo and -out set; see
// bench/README.md for the workloads, the metric catalogue and how to
// compare two commits with bench/compare.
//
// An untraced run (-trace 0) prints the end-to-end metrics. A traced run
// (-trace 1) repeats the timed phase with in-memory spans and a CPU
// profile, runs the layer microbenchmarks on the workload's own inputs,
// and prints the per-layer metrics; spans.json and cpu.prof land in
// <out>/trace/<workload>/. Without -json, each workload prints its metrics
// as "name value unit" lines followed by one JSON line
// {"correct","attempted","failed","metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	// setup is the in-process set-up a -setup-probe child performs; nil
	// for daemon workloads, whose set-up is the daemon's own start.
	setup func(seed uint64) error
	// run executes the timed phase and the checks.
	run func(ctx context.Context, e *env) (*phase, error)
}

var workloads = []workloadDef{
	{name: "figures", why: "the researcher's headline task: Table 1/2 and Fig1-Fig6 regenerated on fresh sessions", setup: setupFigures, run: runFigures},
	{name: "sim-mem", why: "MEM2+MEM4 sweeps: long L2 misses, MSHR pressure and runahead episodes, where RaT acts", setup: setupSim("sim-mem"), run: runSim("sim-mem")},
	{name: "sim-ilp", why: "ILP2+ILP4 sweeps: the same layers with few misses, so runahead rarely fires", setup: setupSim("sim-ilp"), run: runSim("sim-ilp")},
	{name: "serve-cold", why: "daemon sweeps of distinct specs: every cell simulated and written to both disk tiers", run: runServeCold},
	{name: "serve-warm", why: "daemon replays of primed specs in four formats: memory-cache hits, emitters and HTTP only", run: runServeWarm},
	{name: "serve-disk", why: "restarted daemon with a 64-entry cache replaying 240 cells: every cell a disk-tier read", run: runServeDisk},
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_cell", "ms"},
	{"peak_rss_mb", "MB"},
}

// env is what a workload's timed phase runs with.
type env struct {
	name   string
	seed   uint64
	window time.Duration // how long the timed phase starts new operations
	nproc  int
	repo   string   // repository root, where smtsimd is built from
	out    string   // scratch directory for daemon state and traces
	daemon string   // path of the built smtsimd binary
	spans  *spans   // nil on untraced phases
	self   string   // this executable, for set-up probes
	prof   *os.File // CPU profile destination on traced phases
	// specLen is the trace length of a serve workload's generated specs.
	specLen int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark contract fixes.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one -json line: a report plus what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	report
}

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of each timed phase in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	asJSON := flag.Bool("json", false, "print one JSON record per workload (the bench/compare input format)")
	repo := flag.String("repo", "..", "repository root")
	out := flag.String("out", "../.bench_build/out", "scratch directory for daemon state, spans and profiles")
	probe := flag.String("setup-probe", "", "internal: perform one workload's in-process set-up and exit")
	flag.Parse()

	if *probe != "" {
		if err := runProbe(*probe, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "smtbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "smtbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "smtbench: unknown workload %q (valid: all%s)\n", *name, workloadNames())
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, selected, *seed, *seconds, *traced == 1, *asJSON, *repo, *out); err != nil {
		fmt.Fprintln(os.Stderr, "smtbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	s := ""
	for _, w := range workloads {
		s += ", " + w.name
	}
	return s
}

func run(ctx context.Context, selected []workloadDef, seed uint64, seconds int, traced, asJSON bool, repo, out string) error {
	repo, err := filepath.Abs(repo)
	if err != nil {
		return err
	}
	out, err = filepath.Abs(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	daemon, err := buildDaemon(ctx, repo, out)
	if err != nil {
		return err
	}
	for _, w := range selected {
		e := &env{
			name:   w.name,
			seed:   seed,
			window: time.Duration(seconds) * time.Second,
			nproc:  runtime.NumCPU(),
			repo:   repo,
			out:    out,
			daemon: daemon,
			self:   self,
		}
		rep, err := runWorkload(ctx, w, e, traced)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := printReport(w.name, seed, traced, asJSON, rep); err != nil {
			return err
		}
	}
	return nil
}

// runWorkload measures one workload: end-to-end metrics from an untraced
// timed phase, or, when traced, per-layer metrics from a traced repeat of
// it plus the layer microbenchmarks.
func runWorkload(ctx context.Context, w workloadDef, e *env, traced bool) (*report, error) {
	plain, err := w.run(ctx, e)
	if err != nil {
		return nil, err
	}
	rep := &report{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	if !traced {
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{plain.endToEnd(m.name), m.unit}
		}
	} else {
		if err := tracedRepeat(ctx, w, e, plain, rep); err != nil {
			return nil, err
		}
	}
	rep.Correct = rep.Failed == 0
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return rep, nil
}

// printReport writes one workload's result.
func printReport(name string, seed uint64, traced, asJSON bool, rep *report) error {
	if asJSON {
		line, err := json.Marshal(record{Workload: name, Seed: seed, Trace: traced, report: *rep})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed %d: %d operations, %d failed\n", name, seed, rep.Attempted, rep.Failed)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("%s %s %s\n", n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
