package pipeline

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/runahead"
	"repro/internal/trace"
)

// fuzzCycles bounds each fuzzed run: long enough for a few memory
// latencies, so misses fill, MSHRs recycle and runahead episodes end.
const fuzzCycles = 1500

// FuzzIssueQueue drives the core over the corner of the configuration
// space where the issue queues and the MSHR file are tight: width 1–8,
// issue queues of 1–12 entries, 1–8 MSHRs, one or two threads, runahead on
// or off, running a tiny trace drawn from a small pool of ops, registers
// and cache lines. Full queues and NoMSHR retries are then common. Every
// run steps in paranoid mode (which checks the ready lists, the wakeup
// state and the resource counts every cycle), must not panic, and must
// give identical statistics when repeated.
func FuzzIssueQueue(f *testing.F) {
	f.Add([]byte{7, 3, 3, 3, 0, 1, 0x06, 0x00, 0x01, 0x01, 0x07, 0x12, 0x0e, 0x20, 0x01, 0x33})
	f.Add([]byte{0, 0, 0, 0, 0, 3, 0x06, 0x10, 0x06, 0x21, 0x05, 0x02, 0x03, 0x04, 0x07, 0x43})
	f.Add([]byte{4, 11, 1, 0, 7, 2, 0x0e, 0x08, 0x16, 0x18, 0x00, 0x02, 0x0b, 0x01, 0x04, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, insts, threads, ok := fuzzMachine(data)
		if !ok {
			return
		}
		first := fuzzRun(t, cfg, insts, threads)
		second := fuzzRun(t, cfg, insts, threads)
		for tid := range first {
			if first[tid] != second[tid] {
				t.Fatalf("thread %d: stats differ on repeat:\n%+v\n%+v", tid, first[tid], second[tid])
			}
		}
	})
}

// fuzzMachine decodes a configuration from the first six bytes of data
// and a trace from the rest, two bytes per instruction.
func fuzzMachine(data []byte) (cfg Config, insts []isa.Inst, threads int, ok bool) {
	const header = 6
	if len(data) < header+2 {
		return cfg, nil, 0, false
	}
	cfg = DefaultConfig()
	cfg.Width = 1 + int(data[0]%8)
	cfg.IntIQ = 1 + int(data[1]%12)
	cfg.LSIQ = 1 + int(data[2]%12)
	cfg.FPIQ = 1 + int(data[3]%12)
	cfg.Mem.MSHRs = 1 + int(data[4]%8)
	if data[5]&1 != 0 {
		cfg.Runahead = runahead.Default()
	}
	threads = 1 + int(data[5]>>1&1)

	body := data[header:]
	if len(body) > 128 {
		body = body[:128]
	}
	for i := 0; i+1 < len(body); i += 2 {
		insts = append(insts, fuzzInst(body[i], body[i+1]))
	}
	return cfg, insts, threads, true
}

// fuzzInst builds one instruction: x picks the op and the cache line, y
// the registers and the branch outcome. Registers come from four integer
// and four FP names plus r28, which nothing writes; sixteen lines keep
// misses, merges and MSHR pressure frequent.
func fuzzInst(x, y byte) isa.Inst {
	ops := [...]isa.Op{isa.OpIntAlu, isa.OpIntMul, isa.OpLoad, isa.OpStore,
		isa.OpFpAlu, isa.OpFpDiv, isa.OpFpLoad, isa.OpBranch}
	intReg := func(b byte) isa.Reg {
		if b%5 == 4 {
			return isa.IntReg(28)
		}
		return isa.IntReg(1 + int(b%5))
	}
	fpReg := func(b byte) isa.Reg { return isa.FPReg(1 + int(b%4)) }

	in := isa.Inst{Op: ops[x%8], Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	addr := missAddr + uint64(x>>3&15)*4096
	switch in.Op {
	case isa.OpIntAlu, isa.OpIntMul:
		in.Dst, in.Src1, in.Src2 = intReg(y), intReg(y>>3), intReg(y>>5)
	case isa.OpFpAlu, isa.OpFpDiv:
		in.Dst, in.Src1, in.Src2 = fpReg(y), fpReg(y>>2), fpReg(y>>4)
	case isa.OpLoad:
		in.Dst, in.Src1, in.Addr = intReg(y), intReg(y>>3), addr
	case isa.OpFpLoad:
		in.Dst, in.Src1, in.Addr = fpReg(y), intReg(y>>3), addr
	case isa.OpStore:
		in.Src1, in.Src2, in.Addr = intReg(y), intReg(y>>3), addr
	case isa.OpBranch:
		in.Src1, in.Taken = intReg(y>>1), y&1 != 0
	}
	return in
}

// fuzzRun builds a fresh core (thread k runs the trace rotated by k
// instructions) and steps it fuzzCycles cycles in paranoid mode,
// returning every thread's statistics.
func fuzzRun(t *testing.T, cfg Config, insts []isa.Inst, threads int) []ThreadStats {
	t.Helper()
	traces := make([]*trace.Trace, threads)
	for k := range traces {
		own := make([]isa.Inst, len(insts))
		for i := range own {
			own[i] = insts[(i+k)%len(insts)]
			own[i].PC = 0x400000 + uint64(4*i)
		}
		traces[k] = trace.FromInsts("fuzz", trace.ClassMEM, own)
	}
	c := mustNew(t, cfg, traces, nil)
	run(t, c, fuzzCycles)
	out := make([]ThreadStats, threads)
	for tid := range out {
		out[tid] = *c.Stats(tid)
	}
	return out
}
