package pipeline

import (
	"strings"
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
	if !c.InRunahead(0) || c.Stats(0).RunaheadEpisodes != 1 {
		t.Fatalf("want the thread in its first runahead episode, got runahead=%v episodes=%d",
			c.InRunahead(0), c.Stats(0).RunaheadEpisodes)
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

// TestWakeupFoldChainSameQueue: both IQInt consumers of the runahead
// trigger fold in the entry cycle. The second waits only on the first, so
// it is woken by the first's fold while IQInt is being scanned: the wakeup
// lands after the entry being visited, in the unscanned tail of the same
// ready list, and the same walk reaches it.
func TestWakeupFoldChainSameQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	tr := wakeupTrace(64,
		isa.Inst{Op: isa.OpLoad, Dst: isa.IntReg(1), Src1: isa.IntReg(28), Addr: missAddr},
		isa.Inst{Op: isa.OpIntAlu, Dst: isa.IntReg(2), Src1: isa.IntReg(1), Src2: isa.IntReg(29)},
		isa.Inst{Op: isa.OpIntAlu, Dst: isa.IntReg(3), Src1: isa.IntReg(2), Src2: isa.IntReg(29)},
	)
	c := mustNew(t, cfg, []*trace.Trace{tr}, nil)
	var secondPending int8 = -1
	folded := func(d *DynInst) bool { return d.folded && d.iq != IQNone }
	at := stepRecording(t, c, map[uint64]func(*DynInst) bool{
		1: folded,
		2: func(d *DynInst) bool {
			if secondPending < 0 && d.dispatched {
				secondPending = d.pending
			}
			return folded(d)
		},
	})
	if secondPending != 1 {
		t.Fatalf("second consumer dispatched with pending %d, want 1 (waiting on the first)", secondPending)
	}
	enteredAt := c.threads[0].raEntered
	if c.Stats(0).RunaheadEpisodes != 1 {
		t.Fatalf("want one runahead episode, got %d", c.Stats(0).RunaheadEpisodes)
	}
	if at[1] != enteredAt || at[2] != enteredAt {
		t.Fatalf("IQInt consumers folded at %d and %d, want both in the entry cycle %d", at[1], at[2], enteredAt)
	}
}

// TestWakeupRunaheadStoreFoldedData: a runahead store whose data producer
// folds reaches pending == 0 without invSrc (data is not fold-relevant), so
// it joins the IQLS ready list and issues in the fold's cycle, IQLS being
// scanned after IQInt.
func TestWakeupRunaheadStoreFoldedData(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	tr := wakeupTrace(64,
		isa.Inst{Op: isa.OpLoad, Dst: isa.IntReg(1), Src1: isa.IntReg(28), Addr: missAddr},
		isa.Inst{Op: isa.OpIntAlu, Dst: isa.IntReg(2), Src1: isa.IntReg(1), Src2: isa.IntReg(29)},
		isa.Inst{Op: isa.OpStore, Src1: isa.IntReg(28), Src2: isa.IntReg(2), Addr: missAddr + 8192},
	)
	c := mustNew(t, cfg, []*trace.Trace{tr}, nil)
	var store *DynInst
	at := stepRecording(t, c, map[uint64]func(*DynInst) bool{
		1: func(d *DynInst) bool { return d.folded && d.iq != IQNone },
		2: func(d *DynInst) bool {
			if d.issued {
				store = d
			}
			return d.issued
		},
	})
	enteredAt := c.threads[0].raEntered
	if at[1] != enteredAt {
		t.Fatalf("data producer folded at %d, want the entry cycle %d", at[1], enteredAt)
	}
	if at[2] != at[1] {
		t.Fatalf("store issued at %d, want the producer's fold cycle %d", at[2], at[1])
	}
	if store.folded || store.invSrc || store.pending != 0 {
		t.Fatalf("store folded=%v invSrc=%v pending=%d, want issued with a valid address",
			store.folded, store.invSrc, store.pending)
	}
}

// TestReadyListOracle: wake keeps the list in qseq order wherever an entry
// lands and counts a wakeup at or behind the scan position as a breach of
// the mid-scan ordering rule; checkReadyList reports each way a list can
// disagree with the selectable entries found in the ROBs.
func TestReadyListOracle(t *testing.T) {
	mk := func(qseq uint64) *DynInst {
		return &DynInst{id: qseq, qseq: qseq, iq: IQInt, dispatched: true}
	}
	a, b, c, d := mk(10), mk(20), mk(30), mk(40)
	list := func(ds ...*DynInst) *issueQueue {
		return &issueQueue{kind: IQInt, ready: append([]*DynInst(nil), ds...)}
	}
	wantErr := func(q *issueQueue, want []*DynInst, substr string) {
		t.Helper()
		err := checkReadyList(q, want)
		if err == nil || !strings.Contains(err.Error(), substr) {
			t.Fatalf("checkReadyList = %v, want an error containing %q", err, substr)
		}
	}

	q := list()
	for _, di := range []*DynInst{d, b, c, a} {
		q.wake(di)
	}
	if err := checkReadyList(q, []*DynInst{c, a, d, b}); err != nil {
		t.Fatalf("woken out of order: %v", err)
	}
	q.scanSeq = c.qseq
	q.wake(mk(35)) // younger than the entry being visited: the unscanned tail
	if q.wokeBehind != 0 || q.ready[3].qseq != 35 {
		t.Fatalf("younger wakeup: wokeBehind %d, list position of 35 wrong", q.wokeBehind)
	}
	q.wake(mk(25)) // older: behind the scan
	if q.wokeBehind != 1 {
		t.Fatalf("older wakeup mid-scan: wokeBehind %d, want 1", q.wokeBehind)
	}
	wantErr(q, nil, "behind the issue scan")

	wantErr(list(b, a), []*DynInst{a, b}, "out of order")
	wantErr(list(a, c), []*DynInst{a, b, c}, "not on the ready list")
	wantErr(list(a, b, c), []*DynInst{a, c}, "not a selectable ROB entry")
	b.squashed = true
	if err := checkReadyList(list(a, b, c), []*DynInst{a, c}); err != nil {
		t.Fatalf("a squashed entry awaiting compaction was rejected: %v", err)
	}
	b.squashed, b.issued = false, true
	wantErr(list(a, b, c), []*DynInst{a, c}, "not live in the queue")
}
