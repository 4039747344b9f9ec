package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/workload"
)

// runCounted is Run that also reports whether any thread issued a demand
// load served by memory over the whole run, warm-up included: the window
// counts in ThreadResult.L2MissLoads miss the warm-up phase. paranoid
// checks the pipeline's invariants every cycle, which panics on the first
// violation.
func runCounted(t *testing.T, cfg Config, w workload.Workload, paranoid bool) (*Result, bool) {
	t.Helper()
	cfg = cfg.withRunDefaults()
	var m Machine
	if err := m.load(cfg, w, nil); err != nil {
		t.Fatal(err)
	}
	c := m.core
	c.SetParanoid(paranoid)
	res := measure(c, cfg, w)
	missed := false
	for tid := 0; tid < c.NumThreads(); tid++ {
		missed = missed || c.Stats(tid).L2MissLoads > 0
	}
	return res, missed
}

// TestMetamorphicRelations checks exact relations between runs of one
// workload under different policies, which no golden of a single run can
// show:
//
//   - with one thread, RR and ICOUNT fetch from the same thread every
//     cycle, so their Results match bit for bit apart from Policy;
//   - STALL, FLUSH, MLP, RaT and the RaT ablations differ from ICOUNT only
//     in how they react to loads that miss the L2, so when no load does,
//     their Results match ICOUNT's bit for bit apart from Policy.
func TestMetamorphicRelations(t *testing.T) {
	if testing.Short() {
		t.Skip("policy sweep")
	}
	missReactive := []PolicyKind{
		PolicySTALL, PolicyFLUSH, PolicyMLP, PolicyRaT,
		PolicyRaTNoPrefetch, PolicyRaTNoFetch, PolicyRaTCache, PolicyRaTNoFPInv,
	}
	same := func(t *testing.T, base, got *Result, p PolicyKind) {
		t.Helper()
		want := *base
		want.Policy = p
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s differs from %s:\n got %+v\nwant %+v", p, base.Policy, *got, want)
		}
	}
	missFree := 0
	for _, w := range []workload.Workload{
		{Group: "ST", Benchmarks: []string{"mcf"}},
		{Group: "ST", Benchmarks: []string{"gzip"}},
		{Group: "ST", Benchmarks: []string{"apsi"}},
		{Group: "ILP2", Benchmarks: []string{"gzip", "bzip2"}},
		{Group: "MEM2", Benchmarks: []string{"art", "mcf"}},
	} {
		t.Run(w.Name(), func(t *testing.T) {
			cfg := fastCfg()
			base, missed := runCounted(t, cfg, w, false)
			if w.Threads() == 1 {
				cfg.Policy = PolicyRR
				rr, _ := runCounted(t, cfg, w, false)
				same(t, base, rr, PolicyRR)
			}
			if missed {
				return
			}
			missFree++
			for _, p := range missReactive {
				cfg.Policy = p
				got, _ := runCounted(t, cfg, w, false)
				same(t, base, got, p)
			}
		})
	}
	if missFree == 0 {
		t.Fatal("no case ran without an L2-miss load: the ICOUNT-equivalence relation was never checked")
	}
}

// FuzzMetamorphic checks TestMetamorphicRelations' two relations over the
// configuration space instead of five fixed cells, with the pipeline's
// invariants checked every cycle (paranoid mode), so a drawn machine that
// corrupts its bookkeeping fails even when both runs agree. It draws the
// workload (every benchmark alone, then Table 2), seed, trace length (at
// most 500 instructions, so an input costs milliseconds), FAME iterations
// (1 to 8), ROB, register, issue queue and L2 sizes, machine width,
// front-end depth, L2 and memory latencies, the IL1 and DL1 size, ways
// and latency, the functional-unit latencies, the mispredict redirect,
// fetch threads per cycle and MSHRs; configurations Validate rejects are
// skipped. With one thread, RR must equal ICOUNT; when the ICOUNT run had
// no L2-miss load, warm-up included, every miss-reactive policy must
// equal it.
func FuzzMetamorphic(f *testing.F) {
	var ws []workload.Workload
	for _, b := range workload.Benchmarks() {
		ws = append(ws, workload.Workload{Group: "ST", Benchmarks: []string{b}})
	}
	ws = append(ws, workload.All()...)
	wl := func(name string) uint8 {
		return uint8(slices.IndexFunc(ws, func(w workload.Workload) bool { return w.Name() == name }))
	}
	// The Table 1 machine on gzip and mcf alone, an ILP pair and a MEM
	// pair, then a reshaped machine with small caches and its own
	// latencies. gzip, the ILP pair and the reshaped apsi run without an
	// L2-miss load. Each second line holds the knobs after memory latency:
	// IL1 KB, ways, latency; DL1 KB, ways, latency; INT multiply, FP add,
	// FP multiply and FP divide latencies; redirect, fetch threads, MSHRs.
	f.Add(wl("ST/gzip"), uint64(1), uint16(500), uint8(0), int16(512), int16(320), int16(64), uint16(2048), int8(16), int8(8), uint16(5), uint16(20), uint16(400),
		uint8(64), int8(4), uint8(1), uint8(64), int8(4), uint8(3), uint8(3), uint8(4), uint8(4), uint8(12), uint8(7), int8(2), int8(64))
	f.Add(wl("ST/mcf"), uint64(2), uint16(400), uint8(3), int16(512), int16(320), int16(64), uint16(2048), int8(16), int8(8), uint16(5), uint16(20), uint16(400),
		uint8(64), int8(4), uint8(1), uint8(64), int8(4), uint8(3), uint8(3), uint8(4), uint8(4), uint8(12), uint8(7), int8(2), int8(64))
	f.Add(wl("ILP2/gzip+bzip2"), uint64(1), uint16(500), uint8(3), int16(512), int16(320), int16(64), uint16(2048), int8(16), int8(8), uint16(5), uint16(20), uint16(400),
		uint8(64), int8(4), uint8(1), uint8(64), int8(4), uint8(3), uint8(3), uint8(4), uint8(4), uint8(12), uint8(7), int8(2), int8(64))
	f.Add(wl("MEM2/art+mcf"), uint64(3), uint16(300), uint8(1), int16(512), int16(320), int16(64), uint16(2048), int8(16), int8(8), uint16(5), uint16(20), uint16(400),
		uint8(64), int8(4), uint8(1), uint8(64), int8(4), uint8(3), uint8(3), uint8(4), uint8(4), uint8(12), uint8(7), int8(2), int8(64))
	f.Add(wl("ST/apsi"), uint64(5), uint16(250), uint8(7), int16(64), int16(96), int16(16), uint16(256), int8(8), int8(4), uint16(2), uint16(12), uint16(150),
		uint8(16), int8(2), uint8(2), uint8(16), int8(2), uint8(2), uint8(2), uint8(3), uint8(5), uint8(20), uint8(4), int8(1), int8(8))
	f.Fuzz(func(t *testing.T, wsel uint8, seed uint64, traceLen uint16, iters uint8, rob, regs, iq int16, l2KB uint16, l2Ways, width int8, frontEnd, l2Lat, memLat uint16,
		il1KB uint8, il1Ways int8, il1Lat, dl1KB uint8, dl1Ways int8, dl1Lat, intMulLat, fpAluLat, fpMulLat, fpDivLat, redirect uint8, fetchThreads, mshrs int8) {
		w := ws[int(wsel)%len(ws)]
		cfg := DefaultConfig()
		cfg.TraceLen, cfg.MinIterations = 1+int(traceLen)%500, 1+int(iters)%8
		cfg.Seed, cfg.MaxCycles = seed, 40_000
		p := &cfg.Pipeline
		p.ROBSize, p.IntRegs, p.FPRegs = int(rob), int(regs), int(regs)
		p.IntIQ, p.FPIQ, p.LSIQ = int(iq), int(iq), int(iq)
		p.Mem.L2.SizeBytes, p.Mem.L2.Ways = uint64(l2KB)<<10, int(l2Ways)
		p.Width, p.FrontEndDepth = int(width), uint64(frontEnd)
		p.Mem.L2.Latency, p.Mem.MemLatency = uint64(l2Lat), uint64(memLat)
		p.Mem.IL1.SizeBytes, p.Mem.IL1.Ways, p.Mem.IL1.Latency = uint64(il1KB)<<10, int(il1Ways), uint64(il1Lat)
		p.Mem.DL1.SizeBytes, p.Mem.DL1.Ways, p.Mem.DL1.Latency = uint64(dl1KB)<<10, int(dl1Ways), uint64(dl1Lat)
		p.IntMulLat, p.FPAluLat, p.FPMulLat, p.FPDivLat = uint64(intMulLat), uint64(fpAluLat), uint64(fpMulLat), uint64(fpDivLat)
		p.MispredictRedirect, p.FetchThreads, p.Mem.MSHRs = uint64(redirect), int(fetchThreads), int(mshrs)
		if cfg.Validate() != nil {
			return
		}
		base, missed := runCounted(t, cfg, w, true)
		check := func(pol PolicyKind) {
			cfg.Policy = pol
			got, _ := runCounted(t, cfg, w, true)
			want := *base
			want.Policy = pol
			if !reflect.DeepEqual(got, &want) {
				t.Fatalf("%s seed %d: %s differs from ICOUNT:\n got %+v\nwant %+v", w.Name(), seed, pol, *got, want)
			}
		}
		if w.Threads() == 1 {
			check(PolicyRR)
		}
		if missed {
			return
		}
		for _, pol := range []PolicyKind{
			PolicySTALL, PolicyFLUSH, PolicyMLP, PolicyRaT,
			PolicyRaTNoPrefetch, PolicyRaTNoFetch, PolicyRaTCache, PolicyRaTNoFPInv,
		} {
			check(pol)
		}
	})
}
