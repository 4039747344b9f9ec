package tracestore

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/trace"
)

func TestGenerateDedupes(t *testing.T) {
	s := New(0)
	opt := trace.Options{Len: 500, Seed: 3}
	a, err := s.Generate("art", opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Generate("art", opt)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same identity returned distinct trace objects")
	}
	if got := s.Stats().Generated; got != 1 {
		t.Fatalf("generated %d traces, want 1", got)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestGenerateNormalizesOptions(t *testing.T) {
	s := New(0)
	a, err := s.Generate("gzip", trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Explicitly spelling out the defaults must land on the same entry.
	b, err := s.Generate("gzip", trace.Options{
		Len: trace.DefaultLen, DataBase: 0x1000_0000, CodeBase: 0x0040_0000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("zero options and explicit defaults produced distinct entries")
	}
}

func TestKeyIncludesAddressBases(t *testing.T) {
	s := New(0)
	a, err := s.Generate("art", trace.Options{Len: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Generate("art", trace.Options{Len: 300, Seed: 9, DataBase: 0x5000_0000})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different data bases shared one trace")
	}
	if got := s.Stats().Generated; got != 2 {
		t.Fatalf("generated %d traces, want 2", got)
	}
}

func TestConcurrentSingleflight(t *testing.T) {
	defer leakcheck.Check(t)
	s := New(0)
	const n = 16
	traces := make([]*trace.Trace, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := s.Generate("mcf", trace.Options{Len: 2000, Seed: 1})
			if err != nil {
				t.Error(err)
			}
			traces[i] = tr
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if traces[i] != traces[0] {
			t.Fatal("concurrent requesters got distinct trace objects")
		}
	}
	if got := s.Stats().Generated; got != 1 {
		t.Fatalf("%d concurrent requesters generated %d traces, want 1", n, got)
	}
}

func TestByteBoundEvicts(t *testing.T) {
	one, err := New(0).Generate("art", trace.Options{Len: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Admit roughly one trace at a time.
	s := New(one.SizeBytes() + 1)
	if _, err := s.Generate("art", trace.Options{Len: 500, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate("art", trace.Options{Len: 500, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with bound %d after two traces", one.SizeBytes()+1)
	}
	// The evicted identity regenerates on demand.
	if _, err := s.Generate("art", trace.Options{Len: 500, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Generated; got != 3 {
		t.Fatalf("generated %d traces, want 3 (two distinct + one regeneration)", got)
	}
}

// TestEntryBoundEvictsLeastRecent: NewBounded's entry bound drops the
// least recently used trace first, under a byte bound that never binds,
// while New stays bounded by bytes only.
func TestEntryBoundEvictsLeastRecent(t *testing.T) {
	opt := func(seed uint64) trace.Options { return trace.Options{Len: 300, Seed: seed} }
	s := NewBounded(2, DefaultMemBytes)
	for _, seed := range []uint64{1, 2, 1, 3} { // 3 evicts 2, the least recent
		if _, err := s.Generate("art", opt(seed)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.MaxEntries != 2 || st.Entries != 2 || st.Evictions != 1 || st.Generated != 3 {
		t.Fatalf("stats %+v: want 2 of at most 2 entries, 1 eviction, 3 generations", st)
	}
	if _, err := s.Generate("art", opt(1)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Generated; got != 3 {
		t.Fatalf("seed 1, used more recently than seed 2, was evicted: %d generations", got)
	}
	if _, err := s.Generate("art", opt(2)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Generated; got != 4 {
		t.Fatalf("seed 2 was kept past the entry bound: %d generations, want 4", got)
	}

	u := New(DefaultMemBytes)
	for seed := uint64(1); seed <= 10; seed++ {
		if _, err := u.Generate("art", opt(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if st := u.Stats(); st.MaxEntries != 0 || st.Entries != 10 || st.Evictions != 0 {
		t.Fatalf("New(%d) stats %+v: want no entry bound and all 10 traces kept", DefaultMemBytes, st)
	}
}

// TestDroppedStoreReleasesTraces: a store holds its traces only through
// itself, so once a store is dropped every trace in its recency tier is
// collected. A store per sweep or per session must not leak its traces
// for the rest of the process.
func TestDroppedStoreReleasesTraces(t *testing.T) {
	freed := make(chan struct{})
	func() {
		s := New(0)
		tr, err := s.Generate("art", trace.Options{Len: 500, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		runtime.AddCleanup(tr, func(c chan struct{}) { close(c) }, freed)
	}()
	// A cleanup runs on its own goroutine after the collection that finds
	// the trace unreachable, so collect until it has run.
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatal("a trace of an unreachable store was never collected")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	s := New(0)
	if _, err := s.Generate("no-such-benchmark", trace.Options{}); err == nil {
		t.Fatal("no error for unknown benchmark")
	}
	if _, err := s.Generate("art", trace.Options{Len: -4}); err == nil {
		t.Fatal("no error for negative length")
	}
	if got := s.Stats().Generated; got != 0 {
		t.Fatalf("errors generated %d traces", got)
	}
}

func TestDefaultIsShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default returned distinct stores")
	}
}
