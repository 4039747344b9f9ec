package trace

import (
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
)

// TestFindErrorListsValidNames: the error-returning lookup names every
// valid benchmark, so a typo in a flag, scenario file or HTTP request is
// self-correcting instead of a panic.
func TestFindErrorListsValidNames(t *testing.T) {
	if _, err := Find("mcf"); err != nil {
		t.Fatalf("Find(mcf) = %v", err)
	}
	_, err := Find("nope")
	if err == nil {
		t.Fatal("Find on unknown benchmark returned no error")
	}
	for _, want := range []string{`"nope"`, "mcf", "wupwise"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Find error %q does not mention %s", err, want)
		}
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustLookup on unknown benchmark did not panic")
		}
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "valid benchmarks") {
			t.Fatalf("MustLookup panic %v does not carry Find's name-listing error", r)
		}
	}()
	MustLookup("nope")
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != 24 {
		t.Fatalf("registry has %d benchmarks, want the paper's 24", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
}

func TestAllTable2BenchmarksPresent(t *testing.T) {
	// Every benchmark named in Table 2 of the paper must have a profile.
	table2 := []string{
		"ammp", "applu", "apsi", "art", "bzip2", "crafty", "eon", "equake",
		"fma3d", "galgel", "gap", "gcc", "gzip", "lucas", "mcf", "mesa",
		"mgrid", "parser", "perl", "swim", "twolf", "vortex", "vpr", "wupwise",
	}
	for _, n := range table2 {
		if _, err := Find(n); err != nil {
			t.Errorf("Table 2 benchmark %q has no profile: %v", n, err)
		}
	}
}

func TestProfileMixesValid(t *testing.T) {
	for _, n := range Names() {
		p := MustLookup(n)
		if s := p.Mix.sum(); s <= 0 || s > 1 {
			t.Errorf("%s: mix mass %v outside (0,1]", n, s)
		}
		if p.WorkingSet < p.HotBytes {
			t.Errorf("%s: working set %d smaller than hot region %d", n, p.WorkingSet, p.HotBytes)
		}
		if p.HotFrac < 0 || p.HotFrac > 1 || p.StreamFrac < 0 || p.StreamFrac > 1 {
			t.Errorf("%s: fractions out of range", n)
		}
		if p.DepP <= 0 || p.DepP >= 1 {
			t.Errorf("%s: DepP %v outside (0,1)", n, p.DepP)
		}
	}
}

func TestMEMClassHasBigFootprints(t *testing.T) {
	// MEM benchmarks must have working sets well beyond the 1MB L2; ILP
	// benchmarks must fit.
	const l2 = 1 << 20
	for _, n := range Names() {
		p := MustLookup(n)
		switch p.Class {
		case ClassMEM:
			if p.WorkingSet <= l2 {
				t.Errorf("MEM benchmark %s has working set %d <= L2", n, p.WorkingSet)
			}
		case ClassILP:
			if p.WorkingSet > l2 {
				t.Errorf("ILP benchmark %s has working set %d > L2", n, p.WorkingSet)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := MustLookup("mcf")
	a := MustGenerate(p, Options{Len: 5000, Seed: 9})
	b := MustGenerate(p, Options{Len: 5000, Seed: 9})
	for i := uint64(0); i < 5000; i++ {
		if *a.At(i) != *b.At(i) {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a.At(i), b.At(i))
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	p := MustLookup("art")
	a := MustGenerate(p, Options{Len: 2000, Seed: 1})
	b := MustGenerate(p, Options{Len: 2000, Seed: 2})
	same := 0
	for i := uint64(0); i < 2000; i++ {
		if a.At(i).Addr == b.At(i).Addr && a.At(i).Op == b.At(i).Op {
			same++
		}
	}
	if same > 1000 {
		t.Fatalf("different seeds produced %d/2000 identical (op,addr) pairs", same)
	}
}

func TestTraceWrapsModulo(t *testing.T) {
	p := MustLookup("gzip")
	tr := MustGenerate(p, Options{Len: 100, Seed: 1})
	if tr.At(0) != tr.At(100) || tr.At(5) != tr.At(205) {
		t.Fatal("At does not wrap modulo trace length")
	}
}

// summary is the instruction-class composition of a trace.
type summary struct {
	Total       int
	Loads       int
	Branches    int
	ChasedLoads int
}

// summarize scans a trace and counts its instruction classes.
func summarize(t *Trace) summary {
	s := summary{Total: len(t.insts)}
	for i := range t.insts {
		in := &t.insts[i]
		switch {
		case in.Op.IsLoad():
			s.Loads++
			if in.AddrDependsOnLoad {
				s.ChasedLoads++
			}
		case in.Op.IsBranch():
			s.Branches++
		}
	}
	return s
}

func TestMixMatchesProfile(t *testing.T) {
	// The empirical instruction mix must track the profile probabilities.
	for _, name := range []string{"mcf", "art", "gzip", "swim"} {
		p := MustLookup(name)
		tr := MustGenerate(p, Options{Len: 50000, Seed: 3})
		s := summarize(tr)
		wantLoads := p.Mix.Load + p.Mix.FPLoad
		gotLoads := float64(s.Loads) / float64(s.Total)
		if math.Abs(gotLoads-wantLoads) > 0.02 {
			t.Errorf("%s: load fraction %v, want ~%v", name, gotLoads, wantLoads)
		}
		wantBr := p.Mix.Branch
		gotBr := float64(s.Branches) / float64(s.Total)
		if math.Abs(gotBr-wantBr) > 0.02 {
			t.Errorf("%s: branch fraction %v, want ~%v", name, gotBr, wantBr)
		}
	}
}

func TestChasedLoadsOnlyWhereProfiled(t *testing.T) {
	mcf := MustGenerate(MustLookup("mcf"), Options{Len: 30000, Seed: 1})
	swim := MustGenerate(MustLookup("swim"), Options{Len: 30000, Seed: 1})
	sm, ss := summarize(mcf), summarize(swim)
	if sm.ChasedLoads == 0 {
		t.Error("mcf generated no pointer-chased loads")
	}
	if ss.ChasedLoads != 0 {
		t.Errorf("swim (ChaseFrac 0) generated %d chased loads", ss.ChasedLoads)
	}
	// Chased fraction should be near the profile value among eligible loads.
	frac := float64(sm.ChasedLoads) / float64(sm.Loads)
	if frac < 0.3 {
		t.Errorf("mcf chased fraction %v unexpectedly low", frac)
	}
}

func TestChasedLoadSourcesAreLoadDests(t *testing.T) {
	tr := MustGenerate(MustLookup("mcf"), Options{Len: 20000, Seed: 5})
	// Walk the trace; for every chased load, its Src1 must match the Dst of
	// a recent earlier integer load.
	recent := make(map[isa.Reg]int) // multiset: reg -> count in window
	var order []isa.Reg
	for i := 0; i < tr.Len(); i++ {
		in := tr.At(uint64(i))
		if in.AddrDependsOnLoad {
			if recent[in.Src1] == 0 {
				t.Fatalf("inst %d chases register %v with no recent load producer", i, in.Src1)
			}
		}
		if in.Op == isa.OpLoad {
			recent[in.Dst]++
			order = append(order, in.Dst)
			if len(order) > 64 {
				recent[order[0]]--
				order = order[1:]
			}
		}
	}
}

func TestRegistersWellFormed(t *testing.T) {
	for _, name := range []string{"mcf", "swim", "eon"} {
		tr := MustGenerate(MustLookup(name), Options{Len: 20000, Seed: 7})
		for i := 0; i < tr.Len(); i++ {
			in := tr.At(uint64(i))
			if in.Dst != isa.RegNone && !(in.Dst.IsInt() || in.Dst.IsFP()) {
				t.Fatalf("%s inst %d: invalid dst %v", name, i, in.Dst)
			}
			for _, src := range []isa.Reg{in.Src1, in.Src2} {
				if src != isa.RegNone && !(src.IsInt() || src.IsFP()) {
					t.Fatalf("%s inst %d: invalid src %v", name, i, src)
				}
			}
			switch in.Op {
			case isa.OpLoad, isa.OpIntAlu, isa.OpIntMul:
				if !in.Dst.IsInt() {
					t.Fatalf("%s inst %d: %v writes %v (want int reg)", name, i, in.Op, in.Dst)
				}
			case isa.OpFpLoad, isa.OpFpAlu, isa.OpFpMul, isa.OpFpDiv:
				if !in.Dst.IsFP() {
					t.Fatalf("%s inst %d: %v writes %v (want fp reg)", name, i, in.Op, in.Dst)
				}
			case isa.OpStore, isa.OpFpStore, isa.OpBranch:
				if in.Dst != isa.RegNone {
					t.Fatalf("%s inst %d: %v has dst %v", name, i, in.Op, in.Dst)
				}
			}
			if in.Op.IsMem() {
				if !in.Src1.IsInt() {
					t.Fatalf("%s inst %d: mem op base reg %v not integer", name, i, in.Src1)
				}
				if in.Addr == 0 {
					t.Fatalf("%s inst %d: mem op with zero address", name, i)
				}
			}
		}
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	p := MustLookup("art")
	opt := Options{Len: 30000, Seed: 1, DataBase: 0x4000_0000}
	tr := MustGenerate(p, opt)
	lo, hi := opt.DataBase, opt.DataBase+p.WorkingSet+4096
	for i := 0; i < tr.Len(); i++ {
		in := tr.At(uint64(i))
		if !in.Op.IsMem() {
			continue
		}
		if in.Addr < lo || in.Addr >= hi {
			t.Fatalf("inst %d address %#x outside [%#x,%#x)", i, in.Addr, lo, hi)
		}
	}
}

func TestPCStaysInCodeRegion(t *testing.T) {
	p := MustLookup("gcc")
	opt := Options{Len: 30000, Seed: 2, CodeBase: 0x0100_0000}
	tr := MustGenerate(p, opt)
	lo := opt.CodeBase
	hi := opt.CodeBase + p.CodeBytes + uint64(4*tr.Len())
	for i := 0; i < tr.Len(); i++ {
		in := tr.At(uint64(i))
		if in.PC < lo || in.PC >= hi {
			t.Fatalf("inst %d PC %#x outside code region", i, in.PC)
		}
	}
}

func TestBranchTargetsStaticPerPC(t *testing.T) {
	// Two dynamic instances of the same static branch should mostly share a
	// target (static CFG), modulo the small indirect fraction. A taken
	// branch's target is the PC the generator moved to, i.e. the next
	// instruction's PC; the last instruction has no successor to read it from.
	tr := MustGenerate(MustLookup("gzip"), Options{Len: 50000, Seed: 4})
	targets := map[uint64]map[uint64]int{}
	for i := 0; i < tr.Len()-1; i++ {
		in := tr.At(uint64(i))
		if !in.Op.IsBranch() || !in.Taken {
			continue
		}
		if targets[in.PC] == nil {
			targets[in.PC] = map[uint64]int{}
		}
		targets[in.PC][tr.At(uint64(i+1)).PC]++
	}
	multi, total := 0, 0
	for _, m := range targets {
		n := 0
		for _, c := range m {
			n += c
		}
		if n < 5 {
			continue
		}
		total++
		if len(m) > 2 { // fixed target plus occasional indirect draws
			multi++
		}
	}
	if total == 0 {
		t.Skip("no hot static branches in window")
	}
	if frac := float64(multi) / float64(total); frac > 0.5 {
		t.Fatalf("%.0f%% of hot static branches have >2 targets; CFG not static enough", frac*100)
	}
}

func TestMEMTracesTouchMoreUniqueLines(t *testing.T) {
	uniqueLines := func(name string) int {
		tr := MustGenerate(MustLookup(name), Options{Len: 40000, Seed: 6})
		lines := map[uint64]bool{}
		for i := 0; i < tr.Len(); i++ {
			in := tr.At(uint64(i))
			if in.Op.IsMem() {
				lines[in.Addr>>6] = true
			}
		}
		return len(lines)
	}
	art, eon := uniqueLines("art"), uniqueLines("eon")
	if art < 2*eon {
		t.Fatalf("art touches %d lines, eon %d; MEM footprint not dominant", art, eon)
	}
}

func TestGenerateDefaultLen(t *testing.T) {
	tr := MustGenerate(MustLookup("gzip"), Options{})
	if tr.Len() != DefaultLen {
		t.Fatalf("default length = %d, want %d", tr.Len(), DefaultLen)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(MustLookup("gzip"), Options{Len: -5}); err == nil {
		t.Fatal("no error for negative length")
	}
	bad := MustLookup("gzip")
	bad.Mix.Load = 2
	if _, err := Generate(bad, Options{Len: 100}); err == nil {
		t.Fatal("no error for instruction mix summing past 1")
	}
}

func TestMustGeneratePanicsOnNegativeLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative length")
		}
	}()
	MustGenerate(MustLookup("gzip"), Options{Len: -5})
}

func BenchmarkGenerate(b *testing.B) {
	p := MustLookup("mcf")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MustGenerate(p, Options{Len: 10000, Seed: uint64(i)})
	}
}
