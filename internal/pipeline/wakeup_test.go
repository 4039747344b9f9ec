package pipeline

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/runahead"
	"repro/internal/trace"
)

// wakeupTrace assembles a single-thread trace from head followed by
// independent ALU filler (r10–r17 from r28/r29, never touching head's
// registers) up to n instructions.
func wakeupTrace(n int, head ...isa.Inst) *trace.Trace {
	insts := make([]isa.Inst, n)
	copy(insts, head)
	for i := len(head); i < n; i++ {
		insts[i] = isa.Inst{Op: isa.OpIntAlu, Dst: isa.IntReg(10 + i%8),
			Src1: isa.IntReg(28), Src2: isa.IntReg(29)}
	}
	for i := range insts {
		insts[i].PC = 0x400000 + uint64(4*i)
	}
	return trace.FromInsts("wakeup", trace.ClassILP, insts)
}

// missAddr is a data address no cache holds at start: loads from it go to
// memory.
const missAddr = 0x10_0000_0000

// stepRecording steps c under paranoid checks until, for every seq in
// conds, the first in-flight instance of thread 0's instruction seq has
// been seen satisfying its condition after a Step; it returns the cycle of
// that Step per seq.
func stepRecording(t *testing.T, c *Core, conds map[uint64]func(*DynInst) bool) map[uint64]uint64 {
	t.Helper()
	c.SetParanoid(true)
	got := map[uint64]uint64{}
	for i := 0; i < 2000 && len(got) < len(conds); i++ {
		now := c.Cycle()
		c.Step()
		th := c.threads[0]
		for j := 0; j < th.rob.len(); j++ {
			di := th.rob.at(j)
			cond, watched := conds[di.seq]
			if _, seen := got[di.seq]; watched && !seen && cond(di) {
				got[di.seq] = now
			}
		}
	}
	if len(got) < len(conds) {
		t.Fatalf("conditions never all held: reached %v of %d", got, len(conds))
	}
	return got
}

func issued(d *DynInst) bool { return d.issued }

// TestWakeupBackToBack: a consumer of a 1-cycle ALU producer waits on one
// source, and the producer's completion broadcast lets it issue in the
// cycle the producer completes — one cycle after the producer issued.
func TestWakeupBackToBack(t *testing.T) {
	tr := wakeupTrace(64,
		isa.Inst{Op: isa.OpIntAlu, Dst: isa.IntReg(1), Src1: isa.IntReg(28), Src2: isa.IntReg(29)},
		isa.Inst{Op: isa.OpIntAlu, Dst: isa.IntReg(2), Src1: isa.IntReg(1), Src2: isa.IntReg(29)},
	)
	c := mustNew(t, DefaultConfig(), []*trace.Trace{tr}, nil)
	var pendingAtDispatch int8 = -1
	var producerDone uint64
	at := stepRecording(t, c, map[uint64]func(*DynInst) bool{
		0: func(d *DynInst) bool { producerDone = d.doneAt; return d.issued },
		1: func(d *DynInst) bool {
			if pendingAtDispatch < 0 {
				pendingAtDispatch = d.pending
			}
			return d.issued
		},
	})
	if pendingAtDispatch != 1 {
		t.Fatalf("consumer dispatched with pending %d, want 1", pendingAtDispatch)
	}
	if at[1] != at[0]+1 || at[1] != producerDone {
		t.Fatalf("producer issued at %d (done %d), consumer at %d: want consumer at %d",
			at[0], producerDone, at[1], at[0]+1)
	}
}

// TestWakeupReadyAtDispatch: a consumer renamed after its producer
// completed (the producer still in flight behind an older miss) counts
// nothing pending, joins no waiter list, and issues at its first scan.
func TestWakeupReadyAtDispatch(t *testing.T) {
	head := []isa.Inst{
		// Blocks the ROB head for a memory latency so the producer stays
		// in flight (completed, not retired) while the consumer arrives.
		{Op: isa.OpLoad, Dst: isa.IntReg(5), Src1: isa.IntReg(28), Addr: missAddr},
		{Op: isa.OpIntAlu, Dst: isa.IntReg(1), Src1: isa.IntReg(28), Src2: isa.IntReg(29)},
	}
	const consumer = 48
	for len(head) < consumer {
		head = append(head, isa.Inst{Op: isa.OpIntAlu, Dst: isa.IntReg(10 + len(head)%8),
			Src1: isa.IntReg(28), Src2: isa.IntReg(29)})
	}
	head = append(head, isa.Inst{Op: isa.OpIntAlu, Dst: isa.IntReg(2), Src1: isa.IntReg(1), Src2: isa.IntReg(29)})
	c := mustNew(t, DefaultConfig(), []*trace.Trace{wakeupTrace(64, head...)}, nil)

	var producerDone uint64
	var sawDispatch bool
	at := stepRecording(t, c, map[uint64]func(*DynInst) bool{
		1: func(d *DynInst) bool { producerDone = d.doneAt; return d.issued },
		consumer: func(d *DynInst) bool {
			if !sawDispatch {
				sawDispatch = true
				if d.src1 < 0 {
					t.Fatal("consumer's source is not a physical register: the producer already retired")
				}
				if d.pending != 0 {
					t.Fatalf("consumer dispatched with pending %d, want 0", d.pending)
				}
				for _, w := range *c.waitersFor(d.tmpl.Src1, d.src1) {
					if w.di == d {
						t.Fatal("consumer joined the waiter list of a produced register")
					}
				}
			}
			return d.dispatched
		},
	})
	dispatchedAt := at[consumer]
	if producerDone > dispatchedAt {
		t.Fatalf("producer completes at %d, after the consumer dispatched at %d", producerDone, dispatchedAt)
	}
	issuedAt := stepRecording(t, c, map[uint64]func(*DynInst) bool{consumer: issued})[consumer]
	if issuedAt != dispatchedAt+1 {
		t.Fatalf("consumer dispatched at %d issued at %d, want %d", dispatchedAt, issuedAt, dispatchedAt+1)
	}
}

// TestWakeupFoldCascade: when a miss poisons its destination on runahead
// entry, an IQInt consumer folds in that cycle's scan and its broadcast
// folds an IQLS consumer in the same cycle (LS is scanned after Int); an
// IQLS fold reaches an IQInt consumer only in the next cycle's scan.
func TestWakeupFoldCascade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	tr := wakeupTrace(64,
		isa.Inst{Op: isa.OpLoad, Dst: isa.IntReg(1), Src1: isa.IntReg(28), Addr: missAddr},
		isa.Inst{Op: isa.OpIntAlu, Dst: isa.IntReg(2), Src1: isa.IntReg(1), Src2: isa.IntReg(29)},
		isa.Inst{Op: isa.OpLoad, Dst: isa.IntReg(3), Src1: isa.IntReg(2), Addr: missAddr + 4096},
		isa.Inst{Op: isa.OpIntAlu, Dst: isa.IntReg(4), Src1: isa.IntReg(3), Src2: isa.IntReg(29)},
	)
	c := mustNew(t, cfg, []*trace.Trace{tr}, nil)
	folded := func(d *DynInst) bool { return d.folded && d.iq != IQNone }
	at := stepRecording(t, c, map[uint64]func(*DynInst) bool{1: folded, 2: folded, 3: folded})
	// The trigger pseudo-retires at entry, so the episode itself records
	// when it began; the miss keeps it running for a memory latency.
	if !c.InRunahead(0) || c.Stats(0).Runahead.Episodes.Value() != 1 {
		t.Fatalf("want the thread in its first runahead episode, got runahead=%v episodes=%d",
			c.InRunahead(0), c.Stats(0).Runahead.Episodes.Value())
	}
	enteredAt := c.threads[0].raEntered
	for seq := uint64(1); seq <= 3; seq++ {
		if at[seq] < enteredAt {
			t.Fatalf("inst %d folded at %d, before runahead entry at %d", seq, at[seq], enteredAt)
		}
	}
	if at[1] != enteredAt {
		t.Errorf("IQInt consumer of the trigger folded at %d, want the entry cycle %d", at[1], enteredAt)
	}
	if at[2] != at[1] {
		t.Errorf("IQLS consumer folded at %d, want the IQInt fold's cycle %d", at[2], at[1])
	}
	if at[3] != at[2]+1 {
		t.Errorf("IQInt consumer of the IQLS fold folded at %d, want %d", at[3], at[2]+1)
	}
}
