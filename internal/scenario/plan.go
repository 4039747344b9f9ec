package scenario

import (
	"fmt"
	"unsafe"

	"repro/internal/core"
	"repro/internal/workload"
)

// Plan is one request's sweep, validated, expanded and prepared once: the
// spec, its workload selection and its configuration grid (one Canonical
// rendering and Fingerprint per point), bound to the runner whose base
// configuration the grid expands onto, with every grid cell and fairness
// reference prepared by that runner (Runner.Prepare). ExecuteStreamCtx
// runs a plan as it is; it never re-validates, re-selects, re-expands or
// re-prepares the spec, so a plan served many times does its per-cell
// work once.
type Plan struct {
	// Spec is the validated spec the plan was built from.
	Spec *Spec

	runner    Runner
	workloads []workload.Workload
	names     []string // Workload.Name() of each workload
	combos    []Combo
	metrics   []metric
	needRef   bool

	// cells holds the prepared grid cells, workload-major: cell (wi, ci)
	// is cells[wi*len(combos)+ci].
	cells []Cell
	// When a metric reads fairness references, refs holds one prepared
	// reference per distinct benchmark j of the selection and combo ci,
	// at refs[j*len(combos)+ci], and refAt[wi][bi] is the j of workload
	// wi's benchmark bi. refMachines holds each combo's reference machine
	// (core.Reference) and refWorkloads/refNames each benchmark's
	// single-thread workload, which the prepared references share.
	refs         []Cell
	refAt        [][]int
	refMachines  []machine
	refWorkloads []workload.Workload
	refNames     []string
}

// machine is one configuration with its canonical rendering.
type machine struct {
	config    core.Config
	canonical string
}

// NewPlan validates sp, expands its workload selection and checks the
// grid against maxCells (0 = unbounded), then expands the configuration
// grid onto r's base configuration and has r prepare every grid cell and
// every fairness reference a metric reads. The cell bound is checked
// before any configuration is built, so an oversized grid costs no
// allocation. Every error NewPlan returns is the spec's fault (smtsimd
// answers it with 400).
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
	p.names = make([]string, len(ws))
	p.cells = make([]Cell, 0, len(ws)*len(combos))
	for wi, w := range ws {
		p.names[wi] = w.Name()
		for ci := range combos {
			c := &combos[ci]
			p.cells = append(p.cells, r.Prepare(w, p.names[wi], &c.Config, c.Canonical))
		}
	}
	if p.needRef {
		p.prepareReferences()
	}
	return p, nil
}

// prepareReferences prepares the fairness references of the grid
// (core.Reference). A benchmark's reference on a combo's machine is the
// same run whichever workload reads it, so each (distinct benchmark,
// combo) pair is prepared once.
func (p *Plan) prepareReferences() {
	at := map[string]int{}
	p.refAt = make([][]int, len(p.workloads))
	for wi, w := range p.workloads {
		p.refAt[wi] = make([]int, len(w.Benchmarks))
		for bi, b := range w.Benchmarks {
			j, ok := at[b]
			if !ok {
				j = len(p.refWorkloads)
				at[b] = j
				ref := core.ReferenceWorkload(b)
				p.refWorkloads = append(p.refWorkloads, ref)
				p.refNames = append(p.refNames, ref.Name())
			}
			p.refAt[wi][bi] = j
		}
	}
	p.refMachines = make([]machine, len(p.combos))
	for ci, c := range p.combos {
		cfg := core.ReferenceConfig(c.Config)
		p.refMachines[ci] = machine{config: cfg, canonical: cfg.Canonical()}
	}
	p.refs = make([]Cell, len(p.refWorkloads)*len(p.combos))
	for j, w := range p.refWorkloads {
		for ci := range p.combos {
			m := &p.refMachines[ci]
			p.refs[j*len(p.combos)+ci] = p.runner.Prepare(w, p.refNames[j], &m.config, m.canonical)
		}
	}
}

// SizeBytes approximates the memory the plan retains beyond its spec:
// the configuration grid, one Combo with its labels, canonical rendering
// and fingerprint per point, the selected workloads and their names, the
// fairness reference machines, and every prepared cell.
func (p *Plan) SizeBytes() int64 {
	const (
		strBytes  = int64(unsafe.Sizeof(""))
		cellBytes = int64(unsafe.Sizeof(Cell(nil)))
		wlBytes   = int64(unsafe.Sizeof(workload.Workload{}))
	)
	n := int64(unsafe.Sizeof(*p)) + int64(len(p.workloads))*wlBytes
	for _, name := range p.names {
		n += strBytes + int64(len(name))
	}
	for _, c := range p.combos {
		n += int64(unsafe.Sizeof(c)) + int64(len(c.Canonical)) + int64(len(c.Fingerprint))
		for _, l := range c.Labels {
			n += strBytes + int64(len(l))
		}
	}
	for _, m := range p.refMachines {
		n += int64(unsafe.Sizeof(m)) + int64(len(m.canonical))
	}
	for j, w := range p.refWorkloads {
		n += wlBytes + strBytes*int64(1+len(w.Benchmarks)) + int64(len(p.refNames[j]))
	}
	for _, at := range p.refAt {
		n += int64(unsafe.Sizeof(at)) + int64(len(at))*int64(unsafe.Sizeof(0))
	}
	for _, c := range p.cells {
		n += cellBytes + c.SizeBytes()
	}
	for _, c := range p.refs {
		n += cellBytes + c.SizeBytes()
	}
	return n
}
