// Package workload defines the multiprogrammed workload suite of Table 2:
// 54 workloads of 2 or 4 SPEC CPU2000 benchmarks, grouped by thread count
// and memory behaviour (ILP / MIX / MEM), exactly as the paper lists them.
package workload

import (
	"fmt"
	"strings"

	"repro/internal/trace"
	"repro/internal/tracestore"
)

// Workload is one multiprogrammed combination.
type Workload struct {
	// Group is the Table 2 column: ILP2, MIX2, MEM2, ILP4, MIX4 or MEM4.
	Group string
	// Benchmarks are the SPEC names, one per hardware context.
	Benchmarks []string
}

// Name renders the canonical workload name, e.g. "MEM2/art+mcf".
func (w Workload) Name() string {
	return w.Group + "/" + strings.Join(w.Benchmarks, "+")
}

// Threads returns the context count.
func (w Workload) Threads() int { return len(w.Benchmarks) }

// table2 transcribes Table 2 of the paper.
var table2 = map[string][][]string{
	"ILP2": {
		{"apsi", "eon"}, {"apsi", "gcc"}, {"bzip2", "vortex"}, {"fma3d", "gcc"},
		{"fma3d", "mesa"}, {"gcc", "mgrid"}, {"gzip", "bzip2"}, {"gzip", "vortex"},
		{"mgrid", "galgel"}, {"wupwise", "gcc"},
	},
	"MIX2": {
		{"applu", "vortex"}, {"art", "gzip"}, {"bzip2", "mcf"}, {"equake", "bzip2"},
		{"galgel", "equake"}, {"lucas", "crafty"}, {"mcf", "eon"}, {"swim", "mgrid"},
		{"twolf", "apsi"}, {"wupwise", "twolf"},
	},
	"MEM2": {
		{"applu", "art"}, {"art", "mcf"}, {"art", "twolf"}, {"art", "vpr"},
		{"equake", "swim"}, {"mcf", "twolf"}, {"parser", "mcf"}, {"swim", "mcf"},
		{"swim", "vpr"}, {"twolf", "swim"},
	},
	"ILP4": {
		{"apsi", "eon", "fma3d", "gcc"}, {"apsi", "eon", "gzip", "vortex"},
		{"apsi", "gap", "wupwise", "perl"}, {"crafty", "fma3d", "apsi", "vortex"},
		{"fma3d", "gcc", "gzip", "vortex"}, {"gzip", "bzip2", "eon", "gcc"},
		{"mesa", "gzip", "fma3d", "bzip2"}, {"wupwise", "gcc", "mgrid", "galgel"},
	},
	"MIX4": {
		{"ammp", "applu", "apsi", "eon"}, {"art", "gap", "twolf", "crafty"},
		{"art", "mcf", "fma3d", "gcc"}, {"gzip", "twolf", "bzip2", "mcf"},
		{"lucas", "crafty", "equake", "bzip2"}, {"mcf", "mesa", "lucas", "gzip"},
		{"swim", "fma3d", "vpr", "bzip2"}, {"swim", "twolf", "gzip", "vortex"},
	},
	"MEM4": {
		{"art", "mcf", "swim", "twolf"}, {"art", "mcf", "vpr", "swim"},
		{"art", "twolf", "equake", "mcf"}, {"equake", "parser", "mcf", "lucas"},
		{"equake", "vpr", "applu", "twolf"}, {"mcf", "twolf", "vpr", "parser"},
		{"parser", "applu", "swim", "twolf"}, {"swim", "applu", "art", "mcf"},
	},
}

// Groups lists the Table 2 groups in presentation order.
func Groups() []string {
	return []string{"ILP2", "MIX2", "MEM2", "ILP4", "MIX4", "MEM4"}
}

// ByGroup returns all workloads of one group. Unknown group names — which
// can arrive straight from a user's -groups flag or a scenario file — are
// reported as an error naming the valid groups, never a panic.
func ByGroup(group string) ([]Workload, error) {
	rows, ok := table2[group]
	if !ok {
		return nil, fmt.Errorf("workload: unknown group %q (valid groups: %s)",
			group, strings.Join(Groups(), ", "))
	}
	out := make([]Workload, 0, len(rows))
	for _, b := range rows {
		out = append(out, Workload{Group: group, Benchmarks: b})
	}
	return out, nil
}

// MustByGroup is ByGroup for the static Table 2 group names; it panics on
// an unknown group and exists for tests, examples and benchmark tables
// where the name is a compile-time constant.
func MustByGroup(group string) []Workload {
	ws, err := ByGroup(group)
	if err != nil {
		panic(err)
	}
	return ws
}

// All returns the full 54-workload suite in group order.
func All() []Workload {
	var out []Workload
	for _, g := range Groups() {
		out = append(out, MustByGroup(g)...)
	}
	return out
}

// Benchmarks returns the union of benchmarks used anywhere in Table 2.
func Benchmarks() []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range All() {
		for _, b := range w.Benchmarks {
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	return out
}

// Address-space layout: each hardware context owns a disjoint 1GB data
// region and a 16MB code region, so the shared caches see genuine
// per-thread footprints with no accidental sharing.
const (
	dataRegionBase   = 0x1000_0000
	dataRegionStride = 0x4000_0000
	codeRegionBase   = 0x0040_0000
	codeRegionStride = 0x0100_0000
)

// MaxThreads is the hardware context limit of the simulated machine.
const MaxThreads = 8

// Validate checks that the workload names a plausible thread count and
// only known benchmarks, reporting unknown names with the valid list.
// Entry points (experiments.NewSession, scenario loading) call it so that
// no user-supplied workload can reach the trace generator's lookup path
// unchecked.
func (w Workload) Validate() error {
	if len(w.Benchmarks) == 0 {
		return fmt.Errorf("workload %q: no benchmarks", w.Group)
	}
	if len(w.Benchmarks) > MaxThreads {
		return fmt.Errorf("workload %s: %d threads exceeds the %d hardware contexts",
			w.Name(), len(w.Benchmarks), MaxThreads)
	}
	for _, name := range w.Benchmarks {
		if _, err := trace.Find(name); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name(), err)
		}
	}
	return nil
}

// Parse builds an ad-hoc workload from a "+"-joined benchmark list, e.g.
// "art+mcf+swim+twolf", optionally prefixed with a group label as in
// "MYGROUP/art+mcf". Scenario files use it to run combinations beyond
// Table 2. The workload is validated before it is returned.
func Parse(spec string) (Workload, error) {
	group := "adhoc"
	rest := spec
	if i := strings.IndexByte(spec, '/'); i >= 0 {
		group, rest = spec[:i], spec[i+1:]
		if group == "" {
			return Workload{}, fmt.Errorf("workload: empty group in %q", spec)
		}
	}
	if rest == "" {
		return Workload{}, fmt.Errorf("workload: empty benchmark list in %q", spec)
	}
	w := Workload{Group: group, Benchmarks: strings.Split(rest, "+")}
	if err := w.Validate(); err != nil {
		return Workload{}, err
	}
	return w, nil
}

// ContextOptions returns the trace generation options for context i of a
// workload run under (length, seed): the per-context seed derivation and
// the disjoint address-space placement in one place, so every path that
// materializes or keys a context's trace agrees on its identity.
func ContextOptions(i int, length int, seed uint64) trace.Options {
	return trace.Options{
		Len:      length,
		Seed:     seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15),
		DataBase: uint64(dataRegionBase + i*dataRegionStride),
		CodeBase: uint64(codeRegionBase + i*codeRegionStride),
	}
}

// TracesVia materializes the workload's instruction traces: one per
// context, deterministic in (workload, seed, length), with disjoint
// address spaces and decorrelated generation streams (two copies of one
// benchmark do not march in lockstep). Unknown benchmark names surface as
// an error (the same one Validate reports).
//
// Traces are served through the trace tier ts; a nil store means the
// process-wide tracestore.Default, and sessions, which keep a private
// store, pass theirs. Two workloads that place the same (benchmark,
// seed) at the same context index — or a workload and its
// single-threaded fairness reference — receive the same shared trace
// object instead of generating twice. The returned traces are read-only,
// which is the only way the simulator uses them.
func (w Workload) TracesVia(ts *tracestore.Store, length int, seed uint64) ([]*trace.Trace, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if ts == nil {
		ts = tracestore.Default()
	}
	out := make([]*trace.Trace, 0, len(w.Benchmarks))
	for i, name := range w.Benchmarks {
		t, err := ts.Generate(name, ContextOptions(i, length, seed))
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name(), err)
		}
		out = append(out, t)
	}
	return out, nil
}

// MustTraces is TracesVia on the default tier for statically known-good
// workloads (tests and benchmarks); it panics on validation failure.
func (w Workload) MustTraces(length int, seed uint64) []*trace.Trace {
	ts, err := w.TracesVia(nil, length, seed)
	if err != nil {
		panic(err)
	}
	return ts
}
