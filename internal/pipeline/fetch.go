package pipeline

import (
	"repro/internal/mem"
	"repro/internal/regfile"
)

// fetchStage runs the ICOUNT.2.8-style fetch: the policy orders threads,
// then up to Config.FetchThreads of them share Config.Width fetch slots.
// Per-thread fetch stops at a taken branch (fetch-group break), at an
// unresolved mispredicted branch, or at an instruction-cache miss.
func (c *Core) fetchStage(now uint64) {
	order := c.policy.FetchPriority(c, c.orderBuf[:0])
	c.orderBuf = order[:0]

	threadsUsed := 0
	slots := c.cfg.Width
	for _, tid := range order {
		if threadsUsed >= c.cfg.FetchThreads || slots == 0 {
			break
		}
		t := c.threads[tid]
		if !c.canFetch(t, now) {
			continue
		}
		n := c.fetchFrom(t, now, slots)
		if n > 0 {
			threadsUsed++
			slots -= n
		}
	}
}

// canFetch applies the mechanical fetch gates (distinct from policy
// priority): front-end stalls, unresolved mispredictions, queue space, and
// the Figure 4 "no fetch during runahead" ablation.
func (c *Core) canFetch(t *thread, now uint64) bool {
	if t.fetchBlockedUntil > now || t.blockingBranch != nil {
		return false
	}
	if t.fq.len() >= c.cfg.FetchQueue {
		return false
	}
	if t.mode == ModeRunahead && !c.cfg.Runahead.FetchInRunahead {
		return false
	}
	return true
}

// fetchFrom fetches up to `slots` instructions for thread t, returning the
// number fetched.
func (c *Core) fetchFrom(t *thread, now uint64, slots int) int {
	n := 0
	for n < slots && t.fq.len() < c.cfg.FetchQueue {
		tmpl := t.tr.At(t.cursor)
		line := tmpl.PC &^ (c.cfg.Mem.IL1.LineBytes - 1)
		if !t.haveFetchLine || line != t.lastFetchLine {
			res := c.hier.Access(mem.KindIfetch, t.id, tmpl.PC, now)
			if res.NoMSHR {
				t.fetchBlockedUntil = now + 1
				break
			}
			if res.Level != mem.LevelL1 {
				// Instruction miss: fetch resumes when the line arrives.
				t.fetchBlockedUntil = res.DoneAt
				break
			}
			t.lastFetchLine, t.haveFetchLine = line, true
		}

		di := c.allocInst()
		di.tid = t.id
		di.seq = t.cursor
		di.tmpl = tmpl
		di.dst = regfile.None
		di.src1 = regfile.None
		di.src2 = regfile.None
		di.fetchReadyAt = now + c.cfg.FrontEndDepth
		if tmpl.Op.IsMem() {
			di.addr = t.tr.AddrAt(t.cursor)
		}
		t.fq.pushBack(di)
		t.icount++
		t.cursor++
		t.stats.Fetched++
		n++

		if tmpl.Op.IsBranch() {
			pred := t.bp.Predict(tmpl.PC)
			if pred != tmpl.Taken {
				// Direction mispredict: in a trace-driven model the wrong
				// path cannot be fetched, so the thread stops fetching
				// until the branch resolves (the bandwidth loss and delay
				// are modelled; wrong-path resource pollution is not).
				di.mispredicted = true
				t.blockingBranch = di
				break
			}
			if tmpl.Taken {
				// Correctly-predicted taken branch ends the fetch group.
				t.haveFetchLine = false
				break
			}
		}
	}
	return n
}
