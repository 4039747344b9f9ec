// Package scenario is the declarative sweep engine in front of the
// simulator: a Spec names a workload selection, a baseline delta, a set
// of axes (each a list of typed configuration deltas onto core.Config),
// the metrics to reduce, and an output format. The engine expands the
// cross-product of the axes, dispatches every (workload, configuration)
// point onto an existing worker pool (experiments.Session implements the
// Runner interface), and returns a structured ResultSet that renders as a
// text table, JSON, or CSV.
//
// The point of the layer is reach: the paper's harness could only vary
// fetch policy and register file size, but any machine-design sweep the
// paper *could* have run — RaT sensitivity to ROB size, L2 latency across
// policies, issue-queue scaling — is a JSON file here, not a new Go
// figure function. Specs load from JSON (see examples/scenarios/) or are
// built in code: the Fig1–Fig6 reproductions are Spec instances plus
// their paper-specific reductions.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"

	"repro/internal/core"
	"repro/internal/workload"
)

// Delta is a typed set of overrides onto core.Config. Every field is
// optional (nil = leave the base value alone); unknown field names in a
// JSON scenario are a load error, so a typo cannot silently sweep
// nothing. Field names below are the JSON keys.
type Delta struct {
	// Policy selects the fetch/resource policy (e.g. "RaT", "ICOUNT").
	Policy *string `json:"policy,omitempty"`

	// Pipeline geometry.
	Width          *int    `json:"width,omitempty"`
	FetchThreads   *int    `json:"fetchThreads,omitempty"`
	FrontEndDepth  *uint64 `json:"frontEndDepth,omitempty"`
	FetchQueue     *int    `json:"fetchQueue,omitempty"`
	ROBSize        *int    `json:"robSize,omitempty"`
	Regs           *int    `json:"regs,omitempty"` // both register files
	IntRegs        *int    `json:"intRegs,omitempty"`
	FPRegs         *int    `json:"fpRegs,omitempty"`
	IQ             *int    `json:"iq,omitempty"` // all three issue queues
	IntIQ          *int    `json:"intIQ,omitempty"`
	FPIQ           *int    `json:"fpIQ,omitempty"`
	LSIQ           *int    `json:"lsIQ,omitempty"`
	IntFU          *int    `json:"intFU,omitempty"`
	FPFU           *int    `json:"fpFU,omitempty"`
	LSFU           *int    `json:"lsFU,omitempty"`
	IntMulLat      *uint64 `json:"intMulLat,omitempty"`
	FPAluLat       *uint64 `json:"fpAluLat,omitempty"`
	FPMulLat       *uint64 `json:"fpMulLat,omitempty"`
	FPDivLat       *uint64 `json:"fpDivLat,omitempty"`
	MispredictCost *uint64 `json:"mispredictRedirect,omitempty"`
	BranchPredRows *int    `json:"branchPredRows,omitempty"`

	// Memory hierarchy. Cache sizes are in KB; lineBytes applies to all
	// three caches (the machine has one line size, per Table 1).
	IL1KB      *int    `json:"il1KB,omitempty"`
	IL1Ways    *int    `json:"il1Ways,omitempty"`
	IL1Lat     *uint64 `json:"il1Lat,omitempty"`
	DL1KB      *int    `json:"dl1KB,omitempty"`
	DL1Ways    *int    `json:"dl1Ways,omitempty"`
	DL1Lat     *uint64 `json:"dl1Lat,omitempty"`
	L2KB       *int    `json:"l2KB,omitempty"`
	L2Ways     *int    `json:"l2Ways,omitempty"`
	L2Lat      *uint64 `json:"l2Lat,omitempty"`
	LineBytes  *uint64 `json:"lineBytes,omitempty"`
	MemLatency *uint64 `json:"memLatency,omitempty"`
	MSHRs      *int    `json:"mshrs,omitempty"`

	// Runahead knobs. The boolean runahead ablations are policy variants
	// ("RaT-noprefetch", "RaT-nofetch", "RaT-racache", "RaT-nofpinv");
	// these are the numeric knobs on top of whatever the policy implies.
	RunaheadExitPenalty  *uint64 `json:"raExitPenalty,omitempty"`
	RunaheadCacheEntries *int    `json:"raCacheEntries,omitempty"`

	// Measurement parameters.
	TraceLen      *int    `json:"traceLen,omitempty"`
	MinIterations *int    `json:"minIterations,omitempty"`
	WarmupInsts   *int    `json:"warmupInsts,omitempty"`
	MaxCycles     *uint64 `json:"maxCycles,omitempty"`
	Seed          *uint64 `json:"seed,omitempty"`
}

// Apply writes the set overrides onto c. Compound fields (regs, iq,
// lineBytes) apply before their specific counterparts, so a delta can say
// "regs": 192, "fpRegs": 256 and mean INT=192, FP=256.
func (d Delta) Apply(c *core.Config) error {
	if d.Policy != nil {
		k, err := core.ParsePolicy(*d.Policy)
		if err != nil {
			return err
		}
		c.Policy = k
	}
	p := &c.Pipeline
	if d.Regs != nil {
		p.IntRegs, p.FPRegs = *d.Regs, *d.Regs
	}
	if d.IQ != nil {
		p.IntIQ, p.FPIQ, p.LSIQ = *d.IQ, *d.IQ, *d.IQ
	}
	if d.LineBytes != nil {
		p.Mem.IL1.LineBytes, p.Mem.DL1.LineBytes, p.Mem.L2.LineBytes =
			*d.LineBytes, *d.LineBytes, *d.LineBytes
	}
	for _, f := range []struct {
		dst *int
		src *int
	}{
		{&p.Width, d.Width}, {&p.FetchThreads, d.FetchThreads},
		{&p.FetchQueue, d.FetchQueue}, {&p.ROBSize, d.ROBSize},
		{&p.IntRegs, d.IntRegs}, {&p.FPRegs, d.FPRegs},
		{&p.IntIQ, d.IntIQ}, {&p.FPIQ, d.FPIQ}, {&p.LSIQ, d.LSIQ},
		{&p.IntFU, d.IntFU}, {&p.FPFU, d.FPFU}, {&p.LSFU, d.LSFU},
		{&p.BranchPredRows, d.BranchPredRows},
		{&p.Mem.IL1.Ways, d.IL1Ways}, {&p.Mem.DL1.Ways, d.DL1Ways},
		{&p.Mem.L2.Ways, d.L2Ways}, {&p.Mem.MSHRs, d.MSHRs},
		{&p.RunaheadCacheEntries, d.RunaheadCacheEntries},
		{&c.TraceLen, d.TraceLen}, {&c.MinIterations, d.MinIterations},
		{&c.WarmupInsts, d.WarmupInsts},
	} {
		if f.src != nil {
			*f.dst = *f.src
		}
	}
	for _, f := range []struct {
		dst *uint64
		src *uint64
	}{
		{&p.FrontEndDepth, d.FrontEndDepth},
		{&p.IntMulLat, d.IntMulLat}, {&p.FPAluLat, d.FPAluLat},
		{&p.FPMulLat, d.FPMulLat}, {&p.FPDivLat, d.FPDivLat},
		{&p.MispredictRedirect, d.MispredictCost},
		{&p.Mem.IL1.Latency, d.IL1Lat}, {&p.Mem.DL1.Latency, d.DL1Lat},
		{&p.Mem.L2.Latency, d.L2Lat}, {&p.Mem.MemLatency, d.MemLatency},
		{&c.RunaheadExitPenalty, d.RunaheadExitPenalty},
		{&c.MaxCycles, d.MaxCycles}, {&c.Seed, d.Seed},
	} {
		if f.src != nil {
			*f.dst = *f.src
		}
	}
	for _, f := range []struct {
		name string
		dst  *uint64
		kb   *int
	}{
		{"il1KB", &p.Mem.IL1.SizeBytes, d.IL1KB}, {"dl1KB", &p.Mem.DL1.SizeBytes, d.DL1KB},
		{"l2KB", &p.Mem.L2.SizeBytes, d.L2KB},
	} {
		if f.kb == nil {
			continue
		}
		// A negative size would wrap to an enormous unsigned one, and
		// from 2^54 KB up the shift wraps to a small one. Byte sizes are
		// kept to 63 bits.
		if *f.kb < 0 || *f.kb > math.MaxInt64>>10 {
			return fmt.Errorf("%s %d out of range", f.name, *f.kb)
		}
		*f.dst = uint64(*f.kb) << 10
	}
	return nil
}

// settings lists the set overrides as "name=value" strings in field
// declaration order (JSON key names).
func (d Delta) settings() []string {
	rv := reflect.ValueOf(d)
	rt := rv.Type()
	var out []string
	for i := 0; i < rt.NumField(); i++ {
		f := rv.Field(i)
		if f.Kind() != reflect.Pointer || f.IsNil() {
			continue
		}
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		out = append(out, fmt.Sprintf("%s=%v", name, f.Elem().Interface()))
	}
	return out
}

// Label derives a human-readable name for the delta, e.g.
// "policy=RaT,robSize=128". The empty delta labels as "base".
func (d Delta) Label() string {
	s := d.settings()
	if len(s) == 0 {
		return "base"
	}
	return strings.Join(s, ",")
}

// Point is one position on an axis: a delta plus an optional label
// (defaulting to the delta's derived label).
type Point struct {
	Label string `json:"label,omitempty"`
	Delta Delta  `json:"delta"`
}

// label returns the explicit label or the derived one.
func (p Point) label() string {
	if p.Label != "" {
		return p.Label
	}
	return p.Delta.Label()
}

// Axis is one swept dimension. The engine crosses all axes; a point's
// delta applies on top of the spec base (and any earlier axis, leftmost
// axis slowest-varying).
type Axis struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// WorkloadSpec selects the workloads a scenario runs: any subset of the
// Table 2 groups (optionally truncated to the first PerGroup entries, in
// table order) plus ad-hoc combinations written as "art+mcf+swim+twolf"
// (optionally "GROUP/art+mcf" to label the group). Empty means the full
// Table 2 suite.
type WorkloadSpec struct {
	Groups   []string `json:"groups,omitempty"`
	PerGroup int      `json:"perGroup,omitempty"`
	Adhoc    []string `json:"adhoc,omitempty"`
}

// Select expands the selection in a fixed order: groups first (table
// order within each), then ad-hoc workloads. Unknown group or benchmark
// names surface as validation errors naming the valid choices, and a
// negative PerGroup is an error (0 means the whole group).
func (ws WorkloadSpec) Select() ([]workload.Workload, error) {
	if ws.PerGroup < 0 {
		return nil, fmt.Errorf("scenario: perGroup %d is negative", ws.PerGroup)
	}
	groups := ws.Groups
	if len(groups) == 0 && len(ws.Adhoc) == 0 {
		groups = workload.Groups()
	}
	var out []workload.Workload
	for _, g := range groups {
		sel, err := workload.ByGroup(g)
		if err != nil {
			return nil, err
		}
		if ws.PerGroup > 0 && ws.PerGroup < len(sel) {
			sel = sel[:ws.PerGroup]
		}
		out = append(out, sel...)
	}
	for _, spec := range ws.Adhoc {
		w, err := workload.Parse(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario: workload selection is empty")
	}
	return out, nil
}

// Spec is one declarative sweep.
type Spec struct {
	// Name identifies the scenario in output.
	Name string `json:"name"`
	// Description is free prose carried into the JSON output.
	Description string `json:"description,omitempty"`
	// Workloads selects what runs.
	Workloads WorkloadSpec `json:"workloads"`
	// Base applies to every point before any axis delta.
	Base Delta `json:"base,omitempty"`
	// Axes are the swept dimensions; their cross-product is the grid.
	// A spec with no axes measures the base configuration alone.
	Axes []Axis `json:"axes,omitempty"`
	// Metrics are the reductions per (workload, configuration) cell; see
	// MetricNames. Empty selects ["throughput"].
	Metrics []string `json:"metrics,omitempty"`
	// Format is the default output format: "table" (default), "json",
	// "csv", or "ndjson" (one JSON object per row; smtsimd's streaming
	// format). The -format flag and the daemon's ?format= override it.
	Format string `json:"format,omitempty"`
}

// metrics returns the selected metric names with the default applied.
func (sp *Spec) metrics() []string {
	if len(sp.Metrics) == 0 {
		return []string{"throughput"}
	}
	return sp.Metrics
}

// Validate checks names, axes, metrics and format. The workload
// selection validates where it expands (Parse at load time, NewPlan at
// run time), so the table is walked once per phase, not per check.
func (sp *Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	// Axis names become output columns (and NDJSON object keys) next to
	// the fixed columns and the metric columns, so they must not collide.
	// No metric is named like a fixed column, so a reserved metric name is
	// one listed twice.
	reserved := map[string]bool{"workload": true, "truncated": true, "config": true}
	for _, m := range sp.metrics() {
		if _, ok := metricByName(m); !ok {
			return fmt.Errorf("scenario %s: unknown metric %q (valid: %s)",
				sp.Name, m, strings.Join(MetricNames(), ", "))
		}
		if reserved[m] {
			return fmt.Errorf("scenario %s: duplicate metric %q", sp.Name, m)
		}
		reserved[m] = true
	}
	seen := map[string]bool{}
	for i, ax := range sp.Axes {
		if ax.Name == "" {
			return fmt.Errorf("scenario %s: axis %d has no name", sp.Name, i)
		}
		if reserved[ax.Name] {
			return fmt.Errorf("scenario %s: axis %q collides with an output column", sp.Name, ax.Name)
		}
		if seen[ax.Name] {
			return fmt.Errorf("scenario %s: duplicate axis %q", sp.Name, ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Points) == 0 {
			return fmt.Errorf("scenario %s: axis %q has no points", sp.Name, ax.Name)
		}
		labels := map[string]bool{}
		for _, pt := range ax.Points {
			l := pt.label()
			if labels[l] {
				return fmt.Errorf("scenario %s: axis %q has duplicate point %q", sp.Name, ax.Name, l)
			}
			labels[l] = true
		}
	}
	if err := CheckFormat(sp.Format); err != nil {
		return fmt.Errorf("scenario %s: %w", sp.Name, err)
	}
	return nil
}

// Combo is one fully expanded configuration of the grid.
type Combo struct {
	// Labels holds one axis-point label per axis, in axis order.
	Labels []string
	// Config is the complete machine configuration of this point.
	Config core.Config
	// Fingerprint is Config.Fingerprint(), for output labelling.
	Fingerprint string
}

// Combos expands the cross-product of the axes onto base (after the
// spec's own Base delta), leftmost axis slowest-varying, and validates
// every resulting machine configuration.
func (sp *Spec) Combos(base core.Config) ([]Combo, error) {
	cfg := base
	if err := sp.Base.Apply(&cfg); err != nil {
		return nil, fmt.Errorf("scenario %s: base: %w", sp.Name, err)
	}
	combos := []Combo{{Config: cfg}}
	for _, ax := range sp.Axes {
		next := make([]Combo, 0, len(combos)*len(ax.Points))
		for _, c := range combos {
			for _, pt := range ax.Points {
				nc := c.Config
				if err := pt.Delta.Apply(&nc); err != nil {
					return nil, fmt.Errorf("scenario %s: axis %s, point %s: %w",
						sp.Name, ax.Name, pt.label(), err)
				}
				labels := append(append([]string{}, c.Labels...), pt.label())
				next = append(next, Combo{Labels: labels, Config: nc})
			}
		}
		combos = next
	}
	for i := range combos {
		if err := combos[i].Config.Validate(); err != nil {
			// A spec with no axes has one point, the base itself.
			point := "base"
			if len(combos[i].Labels) > 0 {
				point = strings.Join(combos[i].Labels, "/")
			}
			return nil, fmt.Errorf("scenario %s: point %s: %w", sp.Name, point, err)
		}
		combos[i].Fingerprint = combos[i].Config.Fingerprint()
	}
	return combos, nil
}

// AxisNames returns the axis names in order.
func (sp *Spec) AxisNames() []string {
	out := make([]string, len(sp.Axes))
	for i, ax := range sp.Axes {
		out[i] = ax.Name
	}
	return out
}

// Decode reads a spec from JSON without validating it; NewPlan (or
// Parse) validates. Unknown fields anywhere in the document are errors,
// so a misspelled knob cannot silently dissolve into a no-op sweep, and
// so is anything but whitespace after the document: an input holds
// exactly one spec.
func Decode(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("more than one JSON value")
		}
		return nil, fmt.Errorf("scenario: trailing data after the spec: %w", err)
	}
	return &sp, nil
}

// Parse decodes a spec from JSON and validates it, workload selection
// and every point's machine configuration (on the Table 1 machine)
// included.
func Parse(r io.Reader) (*Spec, error) {
	sp, err := Decode(r)
	if err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if _, err := sp.Workloads.Select(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
	}
	if _, err := sp.Combos(core.DefaultConfig()); err != nil {
		return nil, err
	}
	return sp, nil
}

// Load reads a spec from a JSON file.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	sp, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}
