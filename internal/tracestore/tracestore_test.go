package tracestore

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/blobstore"
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
	if got := s.Generated(); got != 1 {
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
	if got := s.Generated(); got != 2 {
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
	if got := s.Generated(); got != 1 {
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
	if got := s.Generated(); got != 3 {
		t.Fatalf("generated %d traces, want 3 (two distinct + one regeneration)", got)
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
	if got := s.Generated(); got != 0 {
		t.Fatalf("errors generated %d traces", got)
	}
}

func TestDefaultIsShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default returned distinct stores")
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opt := trace.Options{Len: 800, Seed: 5}

	a, err := Open(0, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := a.Generate("swim", opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.DiskMisses != 1 || st.DiskFiles != 1 {
		t.Fatalf("after first generate: diskMisses=%d diskFiles=%d, want 1/1", st.DiskMisses, st.DiskFiles)
	}

	// A fresh store over the same directory serves the trace from disk
	// without generating.
	b, err := Open(0, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Generate("swim", opt)
	if err != nil {
		t.Fatal(err)
	}
	if b.Generated() != 0 {
		t.Fatalf("reopened store generated %d traces, want 0", b.Generated())
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("trace decoded from disk differs from the generated original")
	}
	if st := b.Stats(); st.DiskHits != 1 {
		t.Fatalf("diskHits=%d, want 1", st.DiskHits)
	}
}

// entryFiles lists the store's entry files (ignoring temp files).
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		if strings.HasSuffix(de.Name(), diskFormat.Suffix) {
			out = append(out, filepath.Join(dir, de.Name()))
		}
	}
	return out
}

func TestDiskCorruptionReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	opt := trace.Options{Len: 400, Seed: 2}
	a, err := Open(0, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Generate("art", opt); err != nil {
		t.Fatal(err)
	}
	files := entryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d entry files, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := Open(0, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Generate("art", opt); err != nil {
		t.Fatal(err)
	}
	if b.Generated() != 1 {
		t.Fatalf("corrupt entry served without regeneration (generated=%d)", b.Generated())
	}
	st := b.Stats()
	if st.DiskHits != 0 || st.DiskMisses != 1 {
		t.Fatalf("diskHits=%d diskMisses=%d, want 0/1", st.DiskHits, st.DiskMisses)
	}
}

// TestDiskVersionMismatchReadsAsMiss: a well-formed entry (valid
// checksum, right identity) written under another version — a different
// trace codec, or version 1, which predates folding the codec version
// into the format version — is regenerated, not decoded.
func TestDiskVersionMismatchReadsAsMiss(t *testing.T) {
	opt := trace.Options{Len: 300, Seed: 4}.Normalized()
	tr, err := New(0).Generate("gzip", opt)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Benchmark: "gzip", Len: opt.Len, Seed: opt.Seed, DataBase: opt.DataBase, CodeBase: opt.CodeBase}
	for name, version := range map[string]uint16{
		"codec":  diskFormat.Version + 1,
		"schema": 1,
	} {
		dir := t.TempDir()
		stale := diskFormat
		stale.Version = version
		b, err := blobstore.Open(dir, 0, stale)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Put(k.identity(), tr.AppendBinary(nil)); err != nil {
			t.Fatal(err)
		}
		s, err := Open(0, dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Generate("gzip", opt); err != nil {
			t.Fatal(err)
		}
		if s.Generated() != 1 || s.Stats().DiskMisses != 1 {
			t.Fatalf("%s-version mismatch served without regeneration: %+v", name, s.Stats())
		}
	}
}

func TestDiskByteBoundEvicts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(0, dir, 1) // absurdly tight: every write evicts
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate("art", trace.Options{Len: 300, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate("art", trace.Options{Len: 300, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DiskEvictions == 0 {
		t.Fatal("no disk evictions under a 1-byte bound")
	}
	if st.DiskBytes > 1 && st.DiskFiles > 0 {
		t.Fatalf("bound not enforced: %d files, %d bytes", st.DiskFiles, st.DiskBytes)
	}
}

// TestDiskSweepsTempFiles: opening a trace store on a directory deletes
// the ".tmp-" files (internal/blobstore's in-progress write prefix) a
// killed writer left behind.
func TestDiskSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".tmp-dead")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(0, dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived Open")
	}
}

// TestDiskEvictionDeterministic: the trace store's disk eviction (the
// blobstore victim with the unique minimum access seq) is deterministic
// end to end, so two stores driven through an identical generation
// history shed exactly the same files, whatever order their accounting
// maps happen to iterate in.
func TestDiskEvictionDeterministic(t *testing.T) {
	opt := func(i int) trace.Options { return trace.Options{Len: 300, Seed: uint64(1 + i)} }

	// Size one entry to bound the real runs at four.
	ps, err := Open(0, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Generate("art", opt(0)); err != nil {
		t.Fatal(err)
	}
	entrySize := ps.Stats().DiskBytes
	if entrySize == 0 {
		t.Fatal("probe wrote no bytes")
	}

	history := func(t *testing.T) []string {
		dir := t.TempDir()
		// A 1-byte mem tier keeps nothing resident, so every reread goes
		// back through the disk tier and bumps its access recency.
		s, err := Open(1, dir, 4*entrySize)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := s.Generate("art", opt(i)); err != nil {
				t.Fatal(err)
			}
			// Interleaved rereads decouple recency from insertion order.
			if i%3 == 0 {
				if _, err := s.Generate("art", opt(i/2)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := s.Stats(); st.DiskEvictions == 0 {
			t.Fatalf("history produced no disk evictions: %+v", st)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		return names
	}
	a, b := history(t), history(t)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical histories left different survivors:\n a: %v\n b: %v", a, b)
	}
}
