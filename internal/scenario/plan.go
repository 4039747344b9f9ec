package scenario

import (
	"fmt"
	"unsafe"

	"repro/internal/workload"
)

// Plan is one request's sweep, validated and expanded once: the spec,
// its workload selection and its configuration grid (one Fingerprint per
// point), bound to the runner whose base configuration the grid expands
// onto. ExecuteStreamCtx runs a plan as it is; it never re-validates,
// re-selects or re-expands the spec.
type Plan struct {
	// Spec is the validated spec the plan was built from.
	Spec *Spec

	runner    Runner
	workloads []workload.Workload
	combos    []Combo
	metrics   []metric
	needRef   bool
}

// NewPlan validates sp, expands its workload selection and checks the
// grid against maxCells (0 = unbounded), then expands the configuration
// grid onto r's base configuration. The cell bound is checked before any
// configuration is built, so an oversized grid costs no allocation. Every
// error NewPlan returns is the spec's fault (smtsimd answers it with 400).
func NewPlan(r Runner, sp *Spec, maxCells int64) (*Plan, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	ws, err := sp.Workloads.Select()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
	}
	if maxCells > 0 {
		cells := int64(len(ws))
		over := cells > maxCells
		for _, ax := range sp.Axes {
			cells *= int64(len(ax.Points))
			if over = over || cells > maxCells; over {
				break // stop before the product can overflow
			}
		}
		if over {
			return nil, fmt.Errorf("scenario %s: grid has more than %d cells", sp.Name, maxCells)
		}
	}
	combos, err := sp.Combos(r.BaseConfig())
	if err != nil {
		return nil, err
	}
	p := &Plan{Spec: sp, runner: r, workloads: ws, combos: combos}
	for _, name := range sp.metrics() {
		m, _ := metricByName(name) // Validate vetted the names
		p.metrics = append(p.metrics, m)
		p.needRef = p.needRef || m.needsReference
	}
	return p, nil
}

// SizeBytes approximates the memory the plan retains beyond its spec:
// the configuration grid, one Combo with its labels and fingerprint per
// point, and the selected workloads.
func (p *Plan) SizeBytes() int64 {
	const strBytes = int64(unsafe.Sizeof(""))
	n := int64(unsafe.Sizeof(*p)) + int64(len(p.workloads))*int64(unsafe.Sizeof(workload.Workload{}))
	for _, c := range p.combos {
		n += int64(unsafe.Sizeof(c)) + int64(len(c.Fingerprint))
		for _, l := range c.Labels {
			n += strBytes + int64(len(l))
		}
	}
	return n
}
