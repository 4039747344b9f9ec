package core

import (
	"reflect"
	"strings"
	"testing"
)

// The Table 1 machine's canonical form and fingerprint, as every earlier
// release rendered them. Output labels and persisted result entries are
// named from these bytes, so they must never change.
const (
	goldenDefaultCanonical = "{Pipeline:{Width:8 FetchThreads:2 FrontEndDepth:5 FetchQueue:16 " +
		"ROBSize:512 IntRegs:320 FPRegs:320 IntIQ:64 FPIQ:64 LSIQ:64 IntFU:6 FPFU:3 LSFU:4 " +
		"IntMulLat:3 FPAluLat:4 FPMulLat:4 FPDivLat:12 MispredictRedirect:7 BranchPredRows:4096 " +
		"Mem:{IL1:{Name:IL1 SizeBytes:65536 Ways:4 LineBytes:64 Latency:1} " +
		"DL1:{Name:DL1 SizeBytes:65536 Ways:4 LineBytes:64 Latency:3} " +
		"L2:{Name:L2 SizeBytes:1048576 Ways:8 LineBytes:64 Latency:20} MemLatency:400 MSHRs:64} " +
		"Runahead:{Enabled:false Prefetch:false FetchInRunahead:false InvalidateFP:false " +
		"UseRunaheadCache:false ExitPenalty:0} RunaheadCacheEntries:512} Policy:ICOUNT " +
		"TraceLen:60000 MinIterations:1 WarmupInsts:0 MaxCycles:30000000 Seed:1 RunaheadExitPenalty:0}"
	goldenDefaultFingerprint = "cc636dfba9b10737"
)

func TestCanonicalGolden(t *testing.T) {
	c := DefaultConfig()
	if got := c.Canonical(); got != goldenDefaultCanonical {
		t.Errorf("Canonical drifted:\n got %s\nwant %s", got, goldenDefaultCanonical)
	}
	if got := c.Fingerprint(); got != goldenDefaultFingerprint {
		t.Errorf("Fingerprint = %s, want %s", got, goldenDefaultFingerprint)
	}
	checkReference(t, c)
}

// TestCanonicalAllocs guards the serving path's cost: each call makes
// one allocation, the returned string.
func TestCanonicalAllocs(t *testing.T) {
	c := DefaultConfig()
	for name, f := range map[string]func() string{"Canonical": c.Canonical, "Fingerprint": c.Fingerprint} {
		if n := testing.AllocsPerRun(100, func() { sink = f() }); n > 1 {
			t.Errorf("%s: %v allocs per call, want at most 1", name, n)
		}
	}
}

var sink string

func BenchmarkCanonical(b *testing.B) {
	c := DefaultConfig()
	b.ReportAllocs()
	for b.Loop() {
		sink = c.Canonical()
	}
}

func BenchmarkFingerprint(b *testing.B) {
	c := DefaultConfig()
	b.ReportAllocs()
	for b.Loop() {
		sink = c.Fingerprint()
	}
}

// FuzzCanonical fills every Config field from the fuzz bytes — ints and
// uint64s of any value, bools, and the string fields (Policy and the
// cache names) with arbitrary bytes — and checks Canonical and
// Fingerprint against their fmt references.
func FuzzCanonical(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03IL1\x00\x00\x00\x00\x00\x01\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte("\x80\x00\x00\x00\x00\x00\x00\x00\x07%+v {}:\xff\xfe\x01\x02\x03\x04\x05\x06\x07\x08"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		fill(reflect.ValueOf(&c).Elem(), &data)
		checkReference(t, c)
	})
}

// fill sets every field of the struct v from data, consuming it: ints
// and uints take up to 8 big-endian bytes, bools one byte, strings a
// length byte and that many raw bytes. Missing bytes read as zero. A
// field kind it cannot fill fails loudly, so a new field type cannot
// slip past the fuzz target.
func fill(v reflect.Value, data *[]byte) {
	next := func(n int) []byte {
		n = min(n, len(*data))
		b := (*data)[:n]
		*data = (*data)[n:]
		return b
	}
	word := func() uint64 {
		var x uint64
		for _, b := range next(8) {
			x = x<<8 | uint64(b)
		}
		return x
	}
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Struct:
			fill(f, data)
		case reflect.Int:
			f.SetInt(int64(word()))
		case reflect.Uint64:
			f.SetUint(word())
		case reflect.Bool:
			b := next(1)
			f.SetBool(len(b) == 1 && b[0]&1 == 1)
		case reflect.String:
			n := 0
			if b := next(1); len(b) == 1 {
				n = int(b[0])
			}
			f.SetString(string(next(n)))
		default:
			panic("fill: unhandled field kind " + f.Kind().String())
		}
	}
}

func TestCanonicalDistinguishesEveryKnob(t *testing.T) {
	base := DefaultConfig()
	variants := []func(*Config){
		func(c *Config) { c.Policy = PolicyRaT },
		func(c *Config) { c.Pipeline.ROBSize = 256 },
		func(c *Config) { c.Pipeline.IntRegs = 192 },
		func(c *Config) { c.Pipeline.Width = 4 },
		func(c *Config) { c.Pipeline.Mem.L2.Latency = 30 },
		func(c *Config) { c.Pipeline.Mem.MemLatency = 200 },
		func(c *Config) { c.Pipeline.Runahead.Prefetch = true },
		func(c *Config) { c.Seed = 2 },
		func(c *Config) { c.TraceLen = 999 },
	}
	seen := map[string]int{base.Canonical(): -1}
	for i, mutate := range variants {
		c := base
		mutate(&c)
		canon := c.Canonical()
		if prev, dup := seen[canon]; dup {
			t.Errorf("variant %d collides with %d: %s", i, prev, canon)
		}
		seen[canon] = i
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	a, b := DefaultConfig(), DefaultConfig()
	if a.Canonical() != b.Canonical() {
		t.Fatal("equal configs render different canonical strings")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal configs render different fingerprints")
	}
	if len(a.Fingerprint()) != 16 {
		t.Fatalf("fingerprint %q not 16 hex chars", a.Fingerprint())
	}
	c := a
	c.Pipeline.ROBSize++
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("ROB change did not change the fingerprint")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"ICOUNT", "RaT", "FLUSH", "DCRA", "HillClimbing", "RaT-noprefetch", "MLP"} {
		k, err := ParsePolicy(name)
		if err != nil || string(k) != name {
			t.Errorf("ParsePolicy(%q) = %q, %v", name, k, err)
		}
	}
	if k, err := ParsePolicy(""); err != nil || k != PolicyICount {
		t.Errorf("empty policy = %q, %v, want ICOUNT", k, err)
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	} else if !strings.Contains(err.Error(), "RaT") {
		t.Errorf("error does not list valid policies: %v", err)
	}
}

// TestReferenceMapping pins the fairness reference: the benchmark alone
// in group ST, under ICOUNT, with every other Canonical() field of the
// SMT run's machine unchanged — whatever policy the SMT run used.
func TestReferenceMapping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pipeline.ROBSize = 200
	cfg.Pipeline.IntRegs = 192
	cfg.Pipeline.Mem.MemLatency = 250
	cfg.TraceLen = 1234
	cfg.MaxCycles = 77_000
	cfg.Seed = 9
	cfg.RunaheadExitPenalty = 3
	for _, p := range AllPolicies() {
		cfg.Policy = p
		w, ref := Reference(cfg, "mcf")
		if w.Group != "ST" || len(w.Benchmarks) != 1 || w.Benchmarks[0] != "mcf" {
			t.Errorf("%s: reference workload = %+v, want group ST running mcf alone", p, w)
		}
		if ref.Policy != PolicyICount {
			t.Errorf("%s: reference policy = %s, want ICOUNT", p, ref.Policy)
		}
		ref.Policy = cfg.Policy
		if ref.Canonical() != cfg.Canonical() {
			t.Errorf("%s: reference changed more than the policy:\n got: %s\nwant: %s", p, ref.Canonical(), cfg.Canonical())
		}
	}
}
