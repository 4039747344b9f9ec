package workload

import (
	"strings"
	"testing"
)

// FuzzWorkloadParse is the contract of the ad-hoc workload surface —
// which reaches from -threads flags, scenario files, and smtsimd request
// bodies: any input string either returns an error or a valid workload;
// it never panics and never leaks an unvalidated workload.
func FuzzWorkloadParse(f *testing.F) {
	for _, seed := range []string{
		"art+mcf",
		"MEM2/art+mcf",
		"art+mcf+swim+twolf",
		"GROUP/art+art+art+art+art+art+art+art",
		"",
		"/",
		"/art",
		"x/",
		"art+",
		"+",
		"a//b",
		"ILP2/gzip+bzip2+eon+gcc+crafty+vortex+gap+perl+apsi",
		"art mcf",
		"árt+mcf",
		strings.Repeat("art+", 64) + "art",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		w, err := Parse(spec)
		if err != nil {
			return
		}
		// A parsed workload must satisfy every invariant Validate states.
		if err := w.Validate(); err != nil {
			t.Fatalf("Parse(%q) returned an invalid workload: %v", spec, err)
		}
		if w.Group == "" {
			t.Fatalf("Parse(%q) returned an empty group", spec)
		}
		if n := w.Threads(); n < 1 || n > MaxThreads {
			t.Fatalf("Parse(%q) returned %d threads", spec, n)
		}
		// The canonical name must render (it feeds cache keys and output).
		if w.Name() == "" {
			t.Fatalf("Parse(%q) returned an unnameable workload", spec)
		}
		// Traces must materialize for every valid workload.
		ts, err := w.TracesVia(nil, 64, 1)
		if err != nil {
			t.Fatalf("Parse(%q) accepted a workload whose traces fail: %v", spec, err)
		}
		if len(ts) != w.Threads() {
			t.Fatalf("Parse(%q): %d traces for %d threads", spec, len(ts), w.Threads())
		}
	})
}
