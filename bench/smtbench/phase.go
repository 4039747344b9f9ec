package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/bench/internal/stat"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// setupRepeats is how many times a run measures its set-up; setup_s is
// the median.
const setupRepeats = 15

// op is one closed-loop operation: a figure session, a sweep pass or an
// HTTP request. rows holds the arrival time of each result row (figure,
// cell or NDJSON line) and total the completion time, both relative to
// start.
type op struct {
	start time.Time
	rows  []time.Duration
	total time.Duration
}

// cellResult is one simulated grid cell a workload's checks accepted.
type cellResult struct {
	w        workload.Workload
	cfg      core.Config
	res      *core.Result
	fairness float64 // NaN when the grid did not measure it
}

// grid is a result set with the spec that produced it.
type grid struct {
	spec *scenario.Spec
	rs   *scenario.ResultSet
}

// setup is one measured set-up: exec to ready, in wall time and in the
// CPU time the set-up process used.
type setup struct{ wall, cpu time.Duration }

// phase is what one timed phase of a workload measured.
type phase struct {
	setups    []setup
	ops       []op
	wall      time.Duration // start of the first operation to end of the last
	steal     float64       // host steal over the timed phase, %
	cpu       time.Duration // CPU of the process doing the work (bench or daemon)
	delivered int           // cells delivered
	// cpuSamples are CPU ms per delivered cell, one per operation
	// (in-process workloads) or per cpuWindow (the daemon's).
	cpuSamples []float64
	rssMB      float64 // peak RSS of the process doing the work
	attempted  int
	failed     int
	// extra holds per-layer values measured during the phase (daemon
	// counters, figure shares, throughput in simulated instructions).
	extra map[string]float64
	// cells and grids are the results the checks accepted: the model
	// metrics and the layer microbenchmarks' inputs.
	cells []cellResult
	grids []grid
}

// check counts one checked operation.
func (p *phase) check(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		fmt.Fprintln(os.Stderr, "smtbench: check failed:", err)
	}
}

// addSet records a result set produced through the scenario engine.
func (p *phase) addSet(sp *scenario.Spec, rs *scenario.ResultSet) {
	p.grids = append(p.grids, grid{sp, rs})
	fi := -1
	for i, m := range rs.Metrics {
		if m == "fairness" {
			fi = i
		}
	}
	for wi, w := range rs.Workloads {
		for ci, c := range rs.Combos {
			f := math.NaN()
			if fi >= 0 {
				f = rs.Value(wi, ci, fi)
			}
			p.cells = append(p.cells, cellResult{w, c.Config, rs.Result(wi, ci), f})
		}
	}
}

// addGrid records results the bench simulated itself, reduced to the
// rows the scenario engine would have produced for sp's throughput and
// l2mpki metrics.
func (p *phase) addGrid(sp *scenario.Spec, ws []workload.Workload, combos []scenario.Combo, res [][]*core.Result) {
	rs := &scenario.ResultSet{Name: sp.Name, Axes: sp.AxisNames(), Metrics: sp.Metrics, Workloads: ws, Combos: combos}
	for wi, w := range ws {
		for ci, c := range combos {
			r := res[wi][ci]
			var misses uint64
			for _, t := range r.Threads {
				misses += t.L2MissLoads
			}
			mpki := 0.0
			if r.CommittedTotal > 0 {
				mpki = 1000 * float64(misses) / float64(r.CommittedTotal)
			}
			rs.Rows = append(rs.Rows, scenario.Row{
				Workload:    w.Name(),
				Labels:      c.Labels,
				Fingerprint: c.Fingerprint,
				Values:      []float64{metrics.Throughput(r.IPCs()), mpki},
				Truncated:   r.Truncated,
			})
			p.cells = append(p.cells, cellResult{w, c.Config, r, math.NaN()})
		}
	}
	p.grids = append(p.grids, grid{sp, rs})
}

func (p *phase) opMS(f func(o op) time.Duration) []float64 {
	out := make([]float64, 0, len(p.ops))
	for _, o := range p.ops {
		out = append(out, ms(f(o)))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuPerCell is the median host CPU per delivered cell, in ms.
func (p *phase) cpuPerCell() float64 { return stat.Median(p.cpuSamples) }

// endToEnd computes one end-to-end metric from the phase.
func (p *phase) endToEnd(name string) float64 {
	switch name {
	case "setup_s":
		return p.setupMedian(func(s setup) time.Duration { return s.cpu })
	case "cpu_ms_per_cell":
		return p.cpuPerCell()
	case "peak_rss_mb":
		return p.rssMB
	}
	return math.NaN()
}

// setupMedian is the median of one measure of the set-ups, in seconds.
func (p *phase) setupMedian(f func(setup) time.Duration) float64 {
	s := make([]float64, len(p.setups))
	for i, x := range p.setups {
		s[i] = f(x).Seconds()
	}
	return stat.Median(s)
}

// firstRow is the time from an operation's start to its first row (the
// whole operation when it produced none).
func firstRow(o op) time.Duration {
	if len(o.rows) == 0 {
		return o.total
	}
	return o.rows[0]
}

// timed runs the timed phase: clients closed-loop workers, each starting
// its next operation only after the previous one completed, and none
// starting one once the window has passed. It returns the wall time from
// start to the last completion and the host's steal over it. On traced
// phases it profiles the bench process's CPU for exactly this interval.
func (e *env) timed(clients int, next func(client int, deadline time.Time) bool) (time.Duration, float64) {
	if e.prof != nil {
		if err := pprof.StartCPUProfile(e.prof); err == nil {
			defer pprof.StopCPUProfile()
		}
	}
	h0 := hostCPU()
	start := time.Now()
	deadline := start.Add(e.window)
	done := make(chan struct{}, clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for time.Now().Before(deadline) && next(c, deadline) {
			}
		}()
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	return time.Since(start), 100 * stolenShare(h0, hostCPU())
}

// probeSetups measures an in-process workload's set-up setupRepeats
// times, each as a fresh process: exec of this binary through package
// initialisation and the workload's set-up to exit.
func probeSetups(ctx context.Context, e *env) ([]setup, error) {
	out := make([]setup, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.CommandContext(ctx, e.self, "-setup-probe", e.name, "-seed", strconv.FormatUint(e.seed, 10))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, setup{time.Since(t0), cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()})
	}
	return out, nil
}

// runProbe is the body of a set-up probe process.
func runProbe(name string, seed uint64) error {
	for _, w := range workloads {
		if w.name == name && w.setup != nil {
			return w.setup(seed)
		}
	}
	return fmt.Errorf("no in-process set-up for workload %q", name)
}
