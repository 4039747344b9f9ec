package core

import (
	"fmt"
	"strconv"

	"repro/internal/mem"
)

// Canonical returns a deterministic, human-readable encoding of every
// field of the configuration — pipeline geometry, memory hierarchy,
// runahead settings, policy, and measurement parameters. Two configs have
// equal canonical strings iff they are equal. The persistent result tier
// (internal/resultstore) names and verifies its entries by (workload,
// Canonical), so the string must stay byte-stable across releases: a
// changed rendering orphans every stored result.
//
// The encoding is exactly fmt's %+v rendering of the Config tree, written
// by hand because it sits on every served cell's path. %+v would pick up
// a new field automatically; this appender does not, so a field added to
// any Config struct must be rendered here too. The core tests compare
// Canonical against fmt.Sprintf("%+v", c) over a random population, a
// fuzz corpus and golden literals, and fail until it is.
func (c Config) Canonical() string {
	var buf [canonicalBufLen]byte
	return string(c.appendCanonical(buf[:0]))
}

// Fingerprint returns a short stable hex digest of Canonical — the 64-bit
// FNV-1a sum as 16 lowercase hex digits — for result labelling (JSON/CSV
// output, logs). Use Canonical itself where collisions must be impossible
// (persistent keys).
func (c Config) Fingerprint() string {
	var buf [canonicalBufLen]byte
	h := uint64(fnvOffset64)
	for _, x := range c.appendCanonical(buf[:0]) {
		h ^= uint64(x)
		h *= fnvPrime64
	}
	var hex [16]byte
	for i := len(hex) - 1; i >= 0; i-- {
		hex[i] = hexDigits[h&0xf]
		h >>= 4
	}
	return string(hex[:])
}

const (
	// canonicalBufLen holds the Table 1 machine's rendering (698 bytes)
	// with room for larger values and names, so Canonical and Fingerprint
	// render on the stack; longer renderings spill to the heap.
	canonicalBufLen = 1024

	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	hexDigits   = "0123456789abcdef"
)

// appendCanonical appends the %+v rendering of c to b.
func (c Config) appendCanonical(b []byte) []byte {
	p := &c.Pipeline
	b = appendInt(b, "{Pipeline:{Width:", p.Width)
	b = appendInt(b, " FetchThreads:", p.FetchThreads)
	b = appendUint(b, " FrontEndDepth:", p.FrontEndDepth)
	b = appendInt(b, " FetchQueue:", p.FetchQueue)
	b = appendInt(b, " ROBSize:", p.ROBSize)
	b = appendInt(b, " IntRegs:", p.IntRegs)
	b = appendInt(b, " FPRegs:", p.FPRegs)
	b = appendInt(b, " IntIQ:", p.IntIQ)
	b = appendInt(b, " FPIQ:", p.FPIQ)
	b = appendInt(b, " LSIQ:", p.LSIQ)
	b = appendInt(b, " IntFU:", p.IntFU)
	b = appendInt(b, " FPFU:", p.FPFU)
	b = appendInt(b, " LSFU:", p.LSFU)
	b = appendUint(b, " IntMulLat:", p.IntMulLat)
	b = appendUint(b, " FPAluLat:", p.FPAluLat)
	b = appendUint(b, " FPMulLat:", p.FPMulLat)
	b = appendUint(b, " FPDivLat:", p.FPDivLat)
	b = appendUint(b, " MispredictRedirect:", p.MispredictRedirect)
	b = appendInt(b, " BranchPredRows:", p.BranchPredRows)
	b = appendCache(b, " Mem:{IL1:{Name:", p.Mem.IL1)
	b = appendCache(b, " DL1:{Name:", p.Mem.DL1)
	b = appendCache(b, " L2:{Name:", p.Mem.L2)
	b = appendUint(b, " MemLatency:", p.Mem.MemLatency)
	b = appendInt(b, " MSHRs:", p.Mem.MSHRs)
	ra := &p.Runahead
	b = appendBool(b, "} Runahead:{Enabled:", ra.Enabled)
	b = appendBool(b, " Prefetch:", ra.Prefetch)
	b = appendBool(b, " FetchInRunahead:", ra.FetchInRunahead)
	b = appendBool(b, " InvalidateFP:", ra.InvalidateFP)
	b = appendBool(b, " UseRunaheadCache:", ra.UseRunaheadCache)
	b = appendUint(b, " ExitPenalty:", ra.ExitPenalty)
	b = appendInt(b, "} RunaheadCacheEntries:", p.RunaheadCacheEntries)
	b = append(append(b, "} Policy:"...), c.Policy...)
	b = appendInt(b, " TraceLen:", c.TraceLen)
	b = appendInt(b, " MinIterations:", c.MinIterations)
	b = appendInt(b, " WarmupInsts:", c.WarmupInsts)
	b = appendUint(b, " MaxCycles:", c.MaxCycles)
	b = appendUint(b, " Seed:", c.Seed)
	b = appendUint(b, " RunaheadExitPenalty:", c.RunaheadExitPenalty)
	return append(b, '}')
}

// appendCache renders one cache level; prefix ends in "{Name:".
func appendCache(b []byte, prefix string, cc mem.CacheConfig) []byte {
	b = append(append(b, prefix...), cc.Name...)
	b = appendUint(b, " SizeBytes:", cc.SizeBytes)
	b = appendInt(b, " Ways:", cc.Ways)
	b = appendUint(b, " LineBytes:", cc.LineBytes)
	b = appendUint(b, " Latency:", cc.Latency)
	return append(b, '}')
}

func appendInt(b []byte, prefix string, v int) []byte {
	return strconv.AppendInt(append(b, prefix...), int64(v), 10)
}

func appendUint(b []byte, prefix string, v uint64) []byte {
	return strconv.AppendUint(append(b, prefix...), v, 10)
}

func appendBool(b []byte, prefix string, v bool) []byte {
	return strconv.AppendBool(append(b, prefix...), v)
}

// ParsePolicy validates a policy name from user input (flags, scenario
// files) and returns it as a PolicyKind, with the valid names in the
// error. The empty string parses as ICOUNT, matching Run's default.
func ParsePolicy(name string) (PolicyKind, error) {
	k := PolicyKind(name)
	if _, _, err := buildPolicy(k); err != nil {
		return "", fmt.Errorf("unknown policy %q (valid: %s)", name, policyNames())
	}
	if k == "" {
		k = PolicyICount
	}
	return k, nil
}

// AllPolicies lists every policy ParsePolicy accepts, the main evaluation
// set first.
func AllPolicies() []PolicyKind {
	return append(Policies(),
		PolicyRR, PolicyRaTNoPrefetch, PolicyRaTNoFetch, PolicyRaTCache,
		PolicyRaTNoFPInv, PolicyMLP, PolicyRaTDCRA)
}

func policyNames() string {
	var s string
	for i, p := range AllPolicies() {
		if i > 0 {
			s += ", "
		}
		s += string(p)
	}
	return s
}
