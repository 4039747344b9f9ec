package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// FuzzSpecJSON is the contract of the spec-parsing surface — the exact
// bytes an smtsimd client controls: any input either returns an error or
// a fully validated Spec; it never panics, and an accepted spec survives
// re-validation, workload expansion, a JSON round-trip, and (bounded)
// grid expansion.
func FuzzSpecJSON(f *testing.F) {
	// Seed with the shipped example sweeps plus structural edge cases.
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example scenario seeds found: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, seed := range []string{
		`{}`,
		`{"name":"x"}`,
		`{"name":"x","axes":[]}`,
		`{"name":"x","axes":[{"name":"a","points":[{"delta":{}}]}]}`,
		`{"name":"x","axes":[{"name":"a","points":[{"delta":{"robSize":-1}}]}]}`,
		`{"name":"x","workloads":{"adhoc":["art+mcf"]},"metrics":["nope"]}`,
		`{"name":"x","workloads":{"groups":["MEM2"],"perGroup":-1}}`,
		`{"name":"x","format":"ndjson","base":{"seed":18446744073709551615}}`,
		`{"name":"x","axes":[{"name":"workload","points":[{"delta":{}}]}]}`,
		`[1,2,3]`,
		`null`,
		`"str"`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(bytes.NewReader(data))
		if err != nil {
			if sp != nil {
				t.Fatalf("Parse returned both a spec and an error: %v", err)
			}
			return
		}
		// Accepted specs must be stable under re-validation and expansion.
		if err := sp.Validate(); err != nil {
			t.Fatalf("accepted spec fails re-validation: %v", err)
		}
		ws, err := sp.Workloads.Select()
		if err != nil || len(ws) == 0 {
			t.Fatalf("accepted spec has no expandable workloads: %v", err)
		}
		// A JSON round-trip of the parsed spec must parse again: the spec
		// is also the daemon's wire format (smtload marshals Specs).
		re, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		if _, err := Parse(bytes.NewReader(re)); err != nil {
			t.Fatalf("accepted spec does not round-trip: %v\n%s", err, re)
		}
		// Grid expansion must not panic. Errors are fine (a delta can
		// describe an invalid machine); unbounded growth is not, so skip
		// cross-products beyond the daemon's own cell bound.
		cells := 1
		for _, ax := range sp.Axes {
			cells *= len(ax.Points)
			if cells > 4096 {
				return
			}
		}
		if combos, err := sp.Combos(core.DefaultConfig()); err == nil {
			seen := map[string]bool{}
			for _, c := range combos {
				if c.Fingerprint == "" {
					t.Fatal("combo with empty fingerprint")
				}
				seen[c.Fingerprint] = true
			}
			_ = seen
		}
	})
}

// FuzzRun is the contract of the configuration space a client reaches
// through a scenario delta: the delta either fails plan-time validation
// (Spec.Combos) or describes a machine that runs without panicking or
// failing, reports finite values for every per-cell metric, and gives a
// bit-identical Result when run again on a core.Machine kept across
// inputs, so every input also checks a machine reset from the previous
// input's shape against a new one. Traces are at most 500 instructions
// and runs at most 40,000 cycles, so an input costs milliseconds.
// Latencies range up to 65,535 cycles, far past the pipeline's 1024-cycle
// completion wheel; the L2 is at most 255 KB, so a 1-byte line keeps its
// tag arrays small.
func FuzzRun(f *testing.F) {
	pols := core.AllPolicies()
	pol := func(k core.PolicyKind) uint8 { return uint8(slices.Index(pols, k)) }
	all := workload.All()
	wl := func(name string) uint8 {
		return uint8(slices.IndexFunc(all, func(w workload.Workload) bool { return w.Name() == name }))
	}
	// The Table 1 machine (with a 128 KB L2), then the crash inputs:
	// memory latency 1100 (1123 cycles with the L1 and L2), an FP divide
	// of 5000 cycles on a workload that divides, and the runahead-cache
	// ablation with no cache entries; then a reshaped machine.
	f.Add(wl("MEM2/art+mcf"), pol(core.PolicyRaT), int16(512), int16(320), int16(64), uint16(400), uint16(20), uint16(12), int16(512), uint16(400), uint64(1),
		uint8(128), int8(8), uint8(64), int8(6), int8(4), int8(16), int16(4096), uint16(4))
	f.Add(wl("MEM2/art+mcf"), pol(core.PolicyICount), int16(512), int16(320), int16(64), uint16(1100), uint16(20), uint16(12), int16(512), uint16(400), uint64(1),
		uint8(128), int8(8), uint8(64), int8(6), int8(4), int8(16), int16(4096), uint16(4))
	f.Add(wl("MEM2/applu+art"), pol(core.PolicyICount), int16(512), int16(320), int16(64), uint16(400), uint16(20), uint16(5000), int16(512), uint16(400), uint64(1),
		uint8(128), int8(8), uint8(64), int8(6), int8(4), int8(16), int16(4096), uint16(4))
	f.Add(wl("MEM2/art+mcf"), pol(core.PolicyRaTCache), int16(512), int16(320), int16(64), uint16(400), uint16(20), uint16(12), int16(0), uint16(400), uint64(1),
		uint8(128), int8(8), uint8(64), int8(6), int8(4), int8(16), int16(4096), uint16(4))
	f.Add(wl("MEM4/art+mcf+swim+twolf"), pol(core.PolicyRaTNoPrefetch), int16(96), int16(64), int16(16), uint16(300), uint16(10), uint16(12), int16(64), uint16(300), uint64(7),
		uint8(32), int8(4), uint8(32), int8(2), int8(1), int8(4), int16(64), uint16(40))
	var machine core.Machine
	f.Fuzz(func(t *testing.T, wsel, psel uint8, rob, regs, iq int16, memLat, l2Lat, fpDivLat uint16, raEntries int16, traceLen uint16, seed uint64,
		l2KB uint8, l2Ways int8, lineBytes uint8, intFU, lsFU, fetchQueue int8, bpRows int16, raExit uint16) {
		w := all[int(wsel)%len(all)]
		policy := string(pols[int(psel)%len(pols)])
		robSize, nregs, niq, nra := int(rob), int(regs), int(iq), int(raEntries)
		mem, l2, div := uint64(memLat), uint64(l2Lat), uint64(fpDivLat)
		tl, maxCycles := 1+int(traceLen)%500, uint64(40_000)
		l2Size, ways, line := int(l2KB), int(l2Ways), uint64(lineBytes)
		nint, nls, fq, rows, exit := int(intFU), int(lsFU), int(fetchQueue), int(bpRows), uint64(raExit)
		d := Delta{
			Policy: &policy, ROBSize: &robSize, Regs: &nregs, IQ: &niq,
			MemLatency: &mem, L2Lat: &l2, FPDivLat: &div, RunaheadCacheEntries: &nra,
			L2KB: &l2Size, L2Ways: &ways, LineBytes: &line, RunaheadExitPenalty: &exit,
			IntFU: &nint, LSFU: &nls, FetchQueue: &fq, BranchPredRows: &rows,
			TraceLen: &tl, MaxCycles: &maxCycles, Seed: &seed,
		}
		combos, err := (&Spec{Name: "fuzz", Base: d}).Combos(core.DefaultConfig())
		if err != nil {
			return
		}
		cfg := combos[0].Config
		first, err := core.Run(cfg, w)
		if err != nil {
			t.Fatalf("%s %s: validated configuration failed to run: %v", w.Name(), d.Label(), err)
		}
		for _, m := range metricTable {
			if m.needsReference {
				continue
			}
			if v := m.compute(first, nil); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s %s: metric %s = %v", w.Name(), d.Label(), m.name, v)
			}
		}
		for i, th := range first.Threads {
			for _, v := range []float64{th.IPC, th.RegsNormal, th.RegsRunahead} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s %s: thread %d reports %+v", w.Name(), d.Label(), i, th)
				}
			}
		}
		again, err := machine.Run(cfg, w, nil)
		if err != nil || !reflect.DeepEqual(first, again) {
			t.Fatalf("%s %s: repeat run on the reused machine differs (err %v):\n first %+v\n again %+v", w.Name(), d.Label(), err, first, again)
		}
	})
}
