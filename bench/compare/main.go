// Command compare judges two sets of smtbench runs, a parent commit's and
// a change's, metric by metric and workload by workload:
//
//	bash bench/run.sh --workload all --seed N --json >> parent.ndjson   # N = 1..10, on the parent
//	bash bench/run.sh --workload all --seed N --json >> change.ndjson   # the same seeds, on the change
//	(cd bench && go run ./compare ../parent.ndjson ../change.ndjson)
//
// For each (workload, metric) it prints both sides' median and quartiles,
// the pairs the change won (runs are paired by seed, ties count for
// neither side) and a verdict under the rules of bench/README.md:
//
//   - improved: the change wins at least 9 of 10 pairs and its median is
//     better than the parent's by more than the parent's interquartile
//     range;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound in BENCHMARK.json (per-layer metrics, which have
//     no bound, by the mirror of the improved rule);
//   - unresolved: either side's spread (interquartile range over median)
//     is wider than the bound, unless every change run beats every parent
//     run;
//   - unchanged: anything else.
//
// The exit status is 1 when any end-to-end metric is worse or a
// workload's failed fraction rose, and 2 on bad input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/bench/internal/stat"
)

// benchmarkFile is the part of BENCHMARK.json the verdicts need.
type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// run is one smtbench -json record.
type run struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Trace     bool   `json:"trace"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	benchPath := flag.String("benchmark", "../BENCHMARK.json", "BENCHMARK.json with each metric's direction and bound")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] parent.ndjson change.ndjson")
		os.Exit(2)
	}
	specs, err := loadSpecs(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	parent, err := loadRuns(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	change, err := loadRuns(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if failed := compare(os.Stdout, specs, parent, change); failed {
		os.Exit(1)
	}
}

// spec is a metric's judging rule.
type spec struct {
	higher   bool
	bound    float64 // NaN for per-layer metrics
	endToEnd bool
}

func loadSpecs(path string) (map[string]spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]spec{}
	for _, m := range bf.EndToEnd {
		if m.Bound == nil {
			return nil, fmt.Errorf("%s: end-to-end metric %s has no bound", path, m.Name)
		}
		out[m.Name] = spec{higher: m.Better == "higher", bound: *m.Bound, endToEnd: true}
	}
	for _, m := range bf.PerLayer {
		out[m.Name] = spec{higher: m.Better == "higher", bound: math.NaN()}
	}
	return out, nil
}

func loadRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s:%d: not an smtbench -json record", path, line)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict is the judgement of one (workload, metric).
type verdict struct {
	parent, change [3]float64 // q1, median, q3
	wins, pairs    int
	result         string
}

// judge applies the rules to paired samples; parent[i] and change[i] are
// the same seed's runs.
func judge(s spec, parent, change []float64) verdict {
	var v verdict
	v.parent[0], v.parent[1], v.parent[2] = stat.Quartiles(parent)
	v.change[0], v.change[1], v.change[2] = stat.Quartiles(change)
	better := func(a, b float64) bool { // a better than b
		if s.higher {
			return a > b
		}
		return a < b
	}
	losses := 0
	v.pairs = min(len(parent), len(change))
	for i := 0; i < v.pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			v.wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	gap := math.Abs(v.change[1] - v.parent[1])
	iqr := v.parent[2] - v.parent[0]
	decisive := func(n int) bool { return v.pairs > 0 && 10*n >= 9*v.pairs && gap > iqr }
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	spread := max(stat.Spread(parent), stat.Spread(change))
	switch {
	case decisive(v.wins) && better(v.change[1], v.parent[1]):
		v.result = "improved"
	case !math.IsNaN(s.bound) && spread > s.bound && !allBetter:
		v.result = "unresolved"
	case !math.IsNaN(s.bound) && better(v.parent[1], v.change[1]) && gap > s.bound*math.Abs(v.parent[1]):
		v.result = "worse"
	case math.IsNaN(s.bound) && decisive(losses) && better(v.parent[1], v.change[1]):
		v.result = "worse"
	default:
		v.result = "unchanged"
	}
	return v
}

type key struct {
	workload string
	trace    bool
}

// compare prints the verdict table and reports whether the change failed
// the gate: an end-to-end metric worse, or more operations failing.
func compare(w io.Writer, specs map[string]spec, parent, change []run) bool {
	group := func(rs []run) map[key][]run {
		out := map[key][]run{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			out[k] = append(out[k], r)
		}
		for _, g := range out {
			sort.Slice(g, func(i, j int) bool { return g[i].Seed < g[j].Seed })
		}
		return out
	}
	pg, cg := group(parent), group(change)
	var keys []key
	for k := range pg {
		if _, ok := cg[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].trace != keys[j].trace {
			return !keys[i].trace
		}
		return keys[i].workload < keys[j].workload
	})
	failed := false
	fmt.Fprintf(w, "%-11s %-36s %-32s %-32s %-6s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, k := range keys {
		p, c := pairBySeed(pg[k], cg[k])
		var names []string
		for n := range p[0].Metrics {
			if _, ok := specs[n]; ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			v := judge(specs[n], values(p, n), values(c, n))
			fmt.Fprintf(w, "%-11s %-36s %-32s %-32s %2d/%-3d %s\n", k.workload, n, quart(v.parent), quart(v.change), v.wins, v.pairs, v.result)
			if v.result == "worse" && specs[n].endToEnd {
				failed = true
			}
		}
		pf, cf := failedFrac(p), failedFrac(c)
		result := "unchanged"
		if cf > pf {
			result, failed = "worse", true
		}
		fmt.Fprintf(w, "%-11s %-36s %-32.4g %-32.4g %-6s %s\n", k.workload, "failed_frac", pf, cf, "", result)
	}
	return failed
}

// pairBySeed pairs each parent run with a change run of the same seed, in
// seed order; when the sides share no seed it pairs them in order.
func pairBySeed(p, c []run) ([]run, []run) {
	bySeed := map[uint64][]run{}
	for _, r := range c {
		bySeed[r.Seed] = append(bySeed[r.Seed], r)
	}
	var ps, cs []run
	for _, r := range p {
		if q := bySeed[r.Seed]; len(q) > 0 {
			ps, cs = append(ps, r), append(cs, q[0])
			bySeed[r.Seed] = q[1:]
		}
	}
	if len(ps) == 0 {
		n := min(len(p), len(c))
		return p[:n], c[:n]
	}
	return ps, cs
}

func values(rs []run, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedFrac(rs []run) float64 {
	var a, f int
	for _, r := range rs {
		a += r.Attempted
		f += r.Failed
	}
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

func quart(q [3]float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q[1], q[0], q[2])
}
