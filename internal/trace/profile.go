// Package trace generates the synthetic instruction traces that stand in
// for the paper's SPEC CPU2000 Alpha binaries.
//
// The paper runs 300M-instruction SimPoint intervals of 24 SPEC benchmarks
// on an SMTSIM derivative. We have neither the binaries nor the inputs, so
// each benchmark is replaced by a *profile*: a statistical description of
// the properties the SMT/runahead machinery actually reacts to — the
// instruction-class mix, the memory footprint and access pattern (which set
// the L2 miss rate and the memory-level parallelism), the register
// dependence structure (which sets the exploitable ILP), and the branch
// behaviour (which sets the predictor's accuracy and the icache footprint).
//
// Profiles are calibrated so the single-thread behaviour of each synthetic
// benchmark lands in the band that motivates the paper's ILP/MIX/MEM
// classification: art and mcf miss in the L2 constantly, mcf chases
// pointers (low MLP) while art and swim stream (high MLP), and eon or gzip
// almost never leave the L1. Everything is deterministic: a (profile,
// seed) pair always generates the identical trace.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Class is the paper's benchmark classification, derived from the L2 miss
// rate of the program running alone (§4).
type Class uint8

const (
	// ClassILP marks a high instruction-level-parallelism benchmark with a
	// small cache footprint.
	ClassILP Class = iota
	// ClassMEM marks a memory-bound benchmark with a high L2 miss rate.
	ClassMEM
)

// String names the class as in the paper.
func (c Class) String() string {
	if c == ClassMEM {
		return "MEM"
	}
	return "ILP"
}

// Mix gives the probability of each instruction class at generation time.
// The remaining probability mass (1 - sum) is integer ALU.
type Mix struct {
	Load    float64 // integer loads
	Store   float64 // integer stores
	FPLoad  float64 // FP loads (addresses still computed on the INT side)
	FPStore float64
	Branch  float64
	IntMul  float64
	FPAlu   float64
	FPMul   float64
	FPDiv   float64
}

// sum returns the total probability mass assigned to non-IntAlu classes.
func (m Mix) sum() float64 {
	return m.Load + m.Store + m.FPLoad + m.FPStore + m.Branch +
		m.IntMul + m.FPAlu + m.FPMul + m.FPDiv
}

// Profile statistically describes one benchmark.
type Profile struct {
	// Name is the SPEC benchmark name (e.g. "mcf").
	Name string
	// Class is the paper's ILP/MEM classification.
	Class Class
	// Mix is the instruction-class mix.
	Mix Mix

	// WorkingSet is the data footprint in bytes. Footprints larger than
	// the 1MB L2 produce steady-state L2 misses.
	WorkingSet uint64
	// HotBytes is the size of the hot data region (stack, globals) that
	// absorbs HotFrac of all accesses and stays cache-resident.
	HotBytes uint64
	// HotFrac is the fraction of memory accesses that go to the hot region.
	HotFrac float64
	// StreamFrac is the fraction of *cold* accesses that walk sequential
	// streams (high spatial locality, high MLP when they miss); the rest
	// are uniform over the working set.
	StreamFrac float64
	// Streams is the number of concurrent sequential streams.
	Streams int
	// StrideBytes is the stream advance per access.
	StrideBytes uint64
	// ChaseFrac is the fraction of loads whose address depends on the value
	// of an earlier load (pointer chasing). Chased loads cannot be
	// prefetched by runahead when their producer is invalid, which is what
	// caps mcf's MLP.
	ChaseFrac float64

	// DepP is the geometric parameter for register dependence distance:
	// an operand reads the destination of the instruction d+1 earlier,
	// d ~ Geometric(DepP). Larger DepP means tighter dependence chains and
	// lower ILP.
	DepP float64
	// FarFrac is the fraction of source operands that read long-dead values
	// (always ready), modelling immediates and loop invariants.
	FarFrac float64

	// StrongBiasFrac is the fraction of static branches that are strongly
	// biased (easy to predict); the rest are weakly biased.
	StrongBiasFrac float64
	// TakenRate is the mean taken probability of biased branches.
	TakenRate float64
	// CodeBytes is the instruction footprint, which sets icache behaviour.
	CodeBytes uint64
}

// profiles is the registry of the 24 SPEC CPU2000 benchmarks named in
// Table 2 of the paper. Calibration notes:
//
//   - L2-miss-per-instruction targets (single-thread, steady state):
//     art/mcf ≈ 0.02–0.03, swim/equake/lucas ≈ 0.01–0.02,
//     twolf/vpr/parser/applu ≈ 0.004–0.01, ILP group < 0.001.
//   - mcf gets ChaseFrac 0.75: its misses are dependent, so runahead gains
//     less MLP from it (matching the paper's moderate mcf speedups).
//   - art/swim/applu/lucas stream: independent misses, big MLP for RaT.
//   - FP benchmarks get the FP-heavy mixes that make §3.3's FP
//     invalidation matter.
var profiles = map[string]Profile{
	// ---- Memory-bound group -------------------------------------------
	"art": {
		Name: "art", Class: ClassMEM,
		Mix:        Mix{Load: 0.22, Store: 0.06, FPLoad: 0.08, FPStore: 0.02, Branch: 0.10, FPAlu: 0.16, FPMul: 0.08},
		WorkingSet: 6 << 20, HotBytes: 16 << 10, HotFrac: 0.45,
		StreamFrac: 0.85, Streams: 6, StrideBytes: 16, ChaseFrac: 0.05,
		DepP: 0.48, FarFrac: 0.12,
		StrongBiasFrac: 0.95, TakenRate: 0.65, CodeBytes: 24 << 10,
	},
	"mcf": {
		Name: "mcf", Class: ClassMEM,
		Mix:        Mix{Load: 0.30, Store: 0.09, Branch: 0.16, IntMul: 0.01},
		WorkingSet: 8 << 20, HotBytes: 24 << 10, HotFrac: 0.80,
		StreamFrac: 0.10, Streams: 2, StrideBytes: 32, ChaseFrac: 0.75,
		DepP: 0.48, FarFrac: 0.12,
		StrongBiasFrac: 0.72, TakenRate: 0.55, CodeBytes: 16 << 10,
	},
	"swim": {
		Name: "swim", Class: ClassMEM,
		Mix:        Mix{Load: 0.18, Store: 0.07, FPLoad: 0.10, FPStore: 0.04, Branch: 0.03, FPAlu: 0.24, FPMul: 0.12},
		WorkingSet: 12 << 20, HotBytes: 16 << 10, HotFrac: 0.55,
		StreamFrac: 0.95, Streams: 8, StrideBytes: 8, ChaseFrac: 0.0,
		DepP: 0.40, FarFrac: 0.18,
		StrongBiasFrac: 0.99, TakenRate: 0.85, CodeBytes: 12 << 10,
	},
	"twolf": {
		Name: "twolf", Class: ClassMEM,
		Mix:        Mix{Load: 0.26, Store: 0.09, Branch: 0.14, IntMul: 0.02},
		WorkingSet: 3 << 21 >> 1, HotBytes: 32 << 10, HotFrac: 0.85,
		StreamFrac: 0.15, Streams: 2, StrideBytes: 32, ChaseFrac: 0.35,
		DepP: 0.48, FarFrac: 0.12,
		StrongBiasFrac: 0.70, TakenRate: 0.55, CodeBytes: 48 << 10,
	},
	"equake": {
		Name: "equake", Class: ClassMEM,
		Mix:        Mix{Load: 0.20, Store: 0.06, FPLoad: 0.12, FPStore: 0.03, Branch: 0.08, FPAlu: 0.20, FPMul: 0.10},
		WorkingSet: 5 << 20, HotBytes: 24 << 10, HotFrac: 0.68,
		StreamFrac: 0.70, Streams: 4, StrideBytes: 8, ChaseFrac: 0.20,
		DepP: 0.46, FarFrac: 0.14,
		StrongBiasFrac: 0.92, TakenRate: 0.70, CodeBytes: 24 << 10,
	},
	"lucas": {
		Name: "lucas", Class: ClassMEM,
		Mix:        Mix{Load: 0.14, Store: 0.06, FPLoad: 0.12, FPStore: 0.05, Branch: 0.02, FPAlu: 0.26, FPMul: 0.16},
		WorkingSet: 10 << 20, HotBytes: 16 << 10, HotFrac: 0.60,
		StreamFrac: 0.90, Streams: 4, StrideBytes: 8, ChaseFrac: 0.0,
		DepP: 0.40, FarFrac: 0.18,
		StrongBiasFrac: 0.99, TakenRate: 0.90, CodeBytes: 12 << 10,
	},
	"parser": {
		Name: "parser", Class: ClassMEM,
		Mix:        Mix{Load: 0.27, Store: 0.10, Branch: 0.17},
		WorkingSet: 2 << 20, HotBytes: 48 << 10, HotFrac: 0.85,
		StreamFrac: 0.20, Streams: 2, StrideBytes: 32, ChaseFrac: 0.40,
		DepP: 0.48, FarFrac: 0.12,
		StrongBiasFrac: 0.70, TakenRate: 0.58, CodeBytes: 64 << 10,
	},
	"vpr": {
		Name: "vpr", Class: ClassMEM,
		Mix:        Mix{Load: 0.25, Store: 0.08, Branch: 0.13, FPAlu: 0.06},
		WorkingSet: 3 << 21 >> 1, HotBytes: 40 << 10, HotFrac: 0.85,
		StreamFrac: 0.25, Streams: 2, StrideBytes: 32, ChaseFrac: 0.30,
		DepP: 0.48, FarFrac: 0.12,
		StrongBiasFrac: 0.72, TakenRate: 0.55, CodeBytes: 48 << 10,
	},
	"applu": {
		Name: "applu", Class: ClassMEM,
		Mix:        Mix{Load: 0.16, Store: 0.06, FPLoad: 0.12, FPStore: 0.04, Branch: 0.03, FPAlu: 0.24, FPMul: 0.14, FPDiv: 0.01},
		WorkingSet: 8 << 20, HotBytes: 16 << 10, HotFrac: 0.65,
		StreamFrac: 0.88, Streams: 6, StrideBytes: 8, ChaseFrac: 0.0,
		DepP: 0.40, FarFrac: 0.18,
		StrongBiasFrac: 0.99, TakenRate: 0.88, CodeBytes: 24 << 10,
	},

	// ---- ILP group -----------------------------------------------------
	"gzip": {
		Name: "gzip", Class: ClassILP,
		Mix:        Mix{Load: 0.22, Store: 0.08, Branch: 0.15, IntMul: 0.01},
		WorkingSet: 192 << 10, HotBytes: 64 << 10, HotFrac: 0.86,
		StreamFrac: 0.70, Streams: 2, StrideBytes: 8, ChaseFrac: 0.05,
		DepP: 0.30, FarFrac: 0.34,
		StrongBiasFrac: 0.88, TakenRate: 0.60, CodeBytes: 16 << 10,
	},
	"bzip2": {
		Name: "bzip2", Class: ClassILP,
		Mix:        Mix{Load: 0.24, Store: 0.09, Branch: 0.13, IntMul: 0.01},
		WorkingSet: 512 << 10, HotBytes: 64 << 10, HotFrac: 0.84,
		StreamFrac: 0.65, Streams: 2, StrideBytes: 8, ChaseFrac: 0.06,
		DepP: 0.31, FarFrac: 0.33,
		StrongBiasFrac: 0.86, TakenRate: 0.58, CodeBytes: 20 << 10,
	},
	"eon": {
		Name: "eon", Class: ClassILP,
		Mix:        Mix{Load: 0.22, Store: 0.10, Branch: 0.11, FPAlu: 0.10, FPMul: 0.05},
		WorkingSet: 96 << 10, HotBytes: 48 << 10, HotFrac: 0.90,
		StreamFrac: 0.40, Streams: 2, StrideBytes: 8, ChaseFrac: 0.08,
		DepP: 0.28, FarFrac: 0.36,
		StrongBiasFrac: 0.92, TakenRate: 0.55, CodeBytes: 96 << 10,
	},
	"gcc": {
		Name: "gcc", Class: ClassILP,
		Mix:        Mix{Load: 0.25, Store: 0.11, Branch: 0.16},
		WorkingSet: 768 << 10, HotBytes: 96 << 10, HotFrac: 0.84,
		StreamFrac: 0.45, Streams: 3, StrideBytes: 16, ChaseFrac: 0.12,
		DepP: 0.33, FarFrac: 0.30,
		StrongBiasFrac: 0.82, TakenRate: 0.57, CodeBytes: 192 << 10,
	},
	"crafty": {
		Name: "crafty", Class: ClassILP,
		Mix:        Mix{Load: 0.27, Store: 0.07, Branch: 0.12, IntMul: 0.02},
		WorkingSet: 256 << 10, HotBytes: 96 << 10, HotFrac: 0.88,
		StreamFrac: 0.30, Streams: 2, StrideBytes: 8, ChaseFrac: 0.05,
		DepP: 0.26, FarFrac: 0.38,
		StrongBiasFrac: 0.87, TakenRate: 0.52, CodeBytes: 64 << 10,
	},
	"vortex": {
		Name: "vortex", Class: ClassILP,
		Mix:        Mix{Load: 0.26, Store: 0.13, Branch: 0.14},
		WorkingSet: 640 << 10, HotBytes: 96 << 10, HotFrac: 0.85,
		StreamFrac: 0.45, Streams: 2, StrideBytes: 16, ChaseFrac: 0.10,
		DepP: 0.29, FarFrac: 0.34,
		StrongBiasFrac: 0.90, TakenRate: 0.56, CodeBytes: 128 << 10,
	},
	"gap": {
		Name: "gap", Class: ClassILP,
		Mix:        Mix{Load: 0.24, Store: 0.10, Branch: 0.12, IntMul: 0.03},
		WorkingSet: 384 << 10, HotBytes: 64 << 10, HotFrac: 0.86,
		StreamFrac: 0.50, Streams: 2, StrideBytes: 16, ChaseFrac: 0.08,
		DepP: 0.30, FarFrac: 0.34,
		StrongBiasFrac: 0.88, TakenRate: 0.58, CodeBytes: 48 << 10,
	},
	"perl": {
		Name: "perl", Class: ClassILP,
		Mix:        Mix{Load: 0.26, Store: 0.11, Branch: 0.15},
		WorkingSet: 320 << 10, HotBytes: 80 << 10, HotFrac: 0.86,
		StreamFrac: 0.40, Streams: 2, StrideBytes: 8, ChaseFrac: 0.10,
		DepP: 0.32, FarFrac: 0.31,
		StrongBiasFrac: 0.86, TakenRate: 0.56, CodeBytes: 96 << 10,
	},
	"apsi": {
		Name: "apsi", Class: ClassILP,
		Mix:        Mix{Load: 0.16, Store: 0.06, FPLoad: 0.10, FPStore: 0.04, Branch: 0.05, FPAlu: 0.22, FPMul: 0.12, FPDiv: 0.005},
		WorkingSet: 384 << 10, HotBytes: 64 << 10, HotFrac: 0.82,
		StreamFrac: 0.85, Streams: 4, StrideBytes: 8, ChaseFrac: 0.0,
		DepP: 0.26, FarFrac: 0.38,
		StrongBiasFrac: 0.96, TakenRate: 0.78, CodeBytes: 48 << 10,
	},
	"fma3d": {
		Name: "fma3d", Class: ClassILP,
		Mix:        Mix{Load: 0.17, Store: 0.07, FPLoad: 0.10, FPStore: 0.04, Branch: 0.06, FPAlu: 0.22, FPMul: 0.11},
		WorkingSet: 512 << 10, HotBytes: 64 << 10, HotFrac: 0.80,
		StreamFrac: 0.80, Streams: 4, StrideBytes: 8, ChaseFrac: 0.02,
		DepP: 0.27, FarFrac: 0.36,
		StrongBiasFrac: 0.94, TakenRate: 0.74, CodeBytes: 96 << 10,
	},
	"mesa": {
		Name: "mesa", Class: ClassILP,
		Mix:        Mix{Load: 0.20, Store: 0.08, FPLoad: 0.06, FPStore: 0.03, Branch: 0.08, FPAlu: 0.16, FPMul: 0.09},
		WorkingSet: 256 << 10, HotBytes: 64 << 10, HotFrac: 0.86,
		StreamFrac: 0.70, Streams: 3, StrideBytes: 8, ChaseFrac: 0.03,
		DepP: 0.27, FarFrac: 0.37,
		StrongBiasFrac: 0.93, TakenRate: 0.68, CodeBytes: 64 << 10,
	},
	"mgrid": {
		Name: "mgrid", Class: ClassILP,
		Mix:        Mix{Load: 0.15, Store: 0.05, FPLoad: 0.12, FPStore: 0.04, Branch: 0.02, FPAlu: 0.26, FPMul: 0.14},
		WorkingSet: 640 << 10, HotBytes: 48 << 10, HotFrac: 0.76,
		StreamFrac: 0.95, Streams: 6, StrideBytes: 8, ChaseFrac: 0.0,
		DepP: 0.24, FarFrac: 0.40,
		StrongBiasFrac: 0.99, TakenRate: 0.90, CodeBytes: 16 << 10,
	},
	"galgel": {
		Name: "galgel", Class: ClassILP,
		Mix:        Mix{Load: 0.16, Store: 0.06, FPLoad: 0.10, FPStore: 0.03, Branch: 0.04, FPAlu: 0.24, FPMul: 0.13},
		WorkingSet: 448 << 10, HotBytes: 64 << 10, HotFrac: 0.80,
		StreamFrac: 0.90, Streams: 4, StrideBytes: 8, ChaseFrac: 0.0,
		DepP: 0.25, FarFrac: 0.39,
		StrongBiasFrac: 0.97, TakenRate: 0.82, CodeBytes: 32 << 10,
	},
	"wupwise": {
		Name: "wupwise", Class: ClassILP,
		Mix:        Mix{Load: 0.16, Store: 0.06, FPLoad: 0.10, FPStore: 0.04, Branch: 0.03, FPAlu: 0.24, FPMul: 0.14},
		WorkingSet: 512 << 10, HotBytes: 48 << 10, HotFrac: 0.78,
		StreamFrac: 0.92, Streams: 4, StrideBytes: 8, ChaseFrac: 0.0,
		DepP: 0.25, FarFrac: 0.39,
		StrongBiasFrac: 0.98, TakenRate: 0.86, CodeBytes: 24 << 10,
	},
	"ammp": {
		Name: "ammp", Class: ClassILP,
		Mix:        Mix{Load: 0.19, Store: 0.07, FPLoad: 0.09, FPStore: 0.03, Branch: 0.07, FPAlu: 0.20, FPMul: 0.11, FPDiv: 0.005},
		WorkingSet: 768 << 10, HotBytes: 64 << 10, HotFrac: 0.80,
		StreamFrac: 0.60, Streams: 3, StrideBytes: 16, ChaseFrac: 0.10,
		DepP: 0.29, FarFrac: 0.34,
		StrongBiasFrac: 0.92, TakenRate: 0.66, CodeBytes: 48 << 10,
	},
}

// Find returns the profile for a SPEC benchmark name, reporting an
// unknown name — which can arrive straight from a user's flag, scenario
// file, or HTTP request — as an error listing the valid names, never a
// panic.
func Find(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("trace: unknown benchmark %q (valid benchmarks: %s)",
			name, strings.Join(Names(), ", "))
	}
	return p, nil
}

// MustLookup returns the profile for name or panics with Find's error.
// Workload tables are static data, so a missing profile is a programming
// error; dynamic lookups use Find instead.
func MustLookup(name string) Profile {
	p, err := Find(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns all registered benchmark names, sorted.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
