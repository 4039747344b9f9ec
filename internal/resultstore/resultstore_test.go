package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/core"
)

// randResult builds a randomized Result population, including float bit
// patterns (NaN, infinities, subnormals) the codec must carry exactly.
func randResult(r *rand.Rand) *core.Result {
	weirdFloats := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -0.0}
	f := func() float64 {
		if r.Intn(4) == 0 {
			return weirdFloats[r.Intn(len(weirdFloats))]
		}
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(20)-10))
	}
	names := []string{"art", "mcf", "swim", "", "a workload with spaces", "x\x00y\xffz"}
	res := &core.Result{
		Workload:       names[r.Intn(len(names))],
		Policy:         core.PolicyKind(names[r.Intn(len(names))]),
		Cycles:         r.Uint64(),
		ExecutedTotal:  r.Uint64(),
		CommittedTotal: r.Uint64(),
		Truncated:      r.Intn(2) == 0,
	}
	for i, n := 0, r.Intn(5); i < n; i++ {
		res.Threads = append(res.Threads, core.ThreadResult{
			Benchmark:        names[r.Intn(len(names))],
			Committed:        r.Uint64(),
			IPC:              f(),
			Executed:         r.Uint64(),
			L2MissLoads:      r.Uint64(),
			RunaheadEpisodes: r.Uint64(),
			PseudoRetired:    r.Uint64(),
			Folded:           r.Uint64(),
			PrefetchesIssued: r.Uint64(),
			RegsNormal:       f(),
			RegsRunahead:     f(),
			CyclesInRunahead: r.Uint64(),
		})
	}
	return res
}

// sameResult compares two Results bit-exactly (floats by bit pattern, so
// NaN == NaN for the purpose of round-tripping).
func sameResult(a, b *core.Result) bool {
	fb := math.Float64bits
	if a.Workload != b.Workload || a.Policy != b.Policy || a.Cycles != b.Cycles ||
		a.ExecutedTotal != b.ExecutedTotal || a.CommittedTotal != b.CommittedTotal ||
		a.Truncated != b.Truncated || len(a.Threads) != len(b.Threads) {
		return false
	}
	for i := range a.Threads {
		x, y := &a.Threads[i], &b.Threads[i]
		if x.Benchmark != y.Benchmark || x.Committed != y.Committed ||
			fb(x.IPC) != fb(y.IPC) || x.Executed != y.Executed ||
			x.L2MissLoads != y.L2MissLoads || x.RunaheadEpisodes != y.RunaheadEpisodes ||
			x.PseudoRetired != y.PseudoRetired || x.Folded != y.Folded ||
			x.PrefetchesIssued != y.PrefetchesIssued || fb(x.RegsNormal) != fb(y.RegsNormal) ||
			fb(x.RegsRunahead) != fb(y.RegsRunahead) || x.CyclesInRunahead != y.CyclesInRunahead {
			return false
		}
	}
	return true
}

// TestCodecRoundTrip is the codec property test: encode→decode is the
// identity for randomized Result populations.
func TestCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		res := randResult(r)
		got, err := decodePayload(encodePayload(res))
		if err != nil {
			t.Fatalf("iteration %d: decode: %v", i, err)
		}
		if !sameResult(res, got) {
			t.Fatalf("iteration %d: round trip changed the result:\n in: %+v\nout: %+v", i, res, got)
		}
	}
}

// TestSchemaCoversResultFields pins the field counts of core.Result and
// core.ThreadResult: if a field is added, this test fails, forcing the
// codec to learn the field AND schemaVersion to be bumped (stale entries
// must become misses, not silently decode without the new field).
func TestSchemaCoversResultFields(t *testing.T) {
	if n := reflect.TypeOf(core.Result{}).NumField(); n != 7 {
		t.Errorf("core.Result has %d fields, codec encodes 7: update encodePayload/decodePayload and bump schemaVersion", n)
	}
	if n := reflect.TypeOf(core.ThreadResult{}).NumField(); n != 12 {
		t.Errorf("core.ThreadResult has %d fields, codec encodes 12: update encodePayload/decodePayload and bump schemaVersion", n)
	}
}

// entryPath is the file a cell's entry lives in: the SHA-256 of
// workload + "\x00" + canonical config. The name must not depend on
// schemaVersion, so a schema bump replaces entries in place.
func entryPath(dir, workload string, cfg core.Config) string {
	sum := sha256.Sum256([]byte(workload + "\x00" + cfg.Canonical()))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+".smtres")
}

// TestEntryPathGolden pins the file one (workload, config) pair lives
// in, as every earlier release named it: a drift in Canonical or in the
// identity layout would orphan every stored entry.
func TestEntryPathGolden(t *testing.T) {
	_, cfg, res, path := storeWith(t)
	const want = "7213cfee2360f0c26217ea574921a1c262bf0980b49cd4242f3d7f8aa1c7725b.smtres"
	if res.Workload != "art+mcf" || cfg != core.DefaultConfig() {
		t.Fatalf("storeWith changed its key: %s under %s", res.Workload, cfg.Fingerprint())
	}
	if got := filepath.Base(path); got != want {
		t.Fatalf("entry file = %s, want %s", got, want)
	}
}

// storeWith opens a store in a temp dir and Puts one canonical entry,
// returning everything needed to corrupt and re-probe it.
func storeWith(t *testing.T) (*Store, core.Config, *core.Result, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	res := randResult(rand.New(rand.NewSource(7)))
	res.Workload = "art+mcf"
	if err := s.Put(res.Workload, cfg, res); err != nil {
		t.Fatal(err)
	}
	path := entryPath(dir, res.Workload, cfg)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry not under its content-addressed name: %v", err)
	}
	return s, cfg, res, path
}

// reopen drops the in-process state, as a daemon restart would, and
// opens the unbounded store in dir again.
func reopen(t *testing.T, dir string) *Store {
	t.Helper()
	ns, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

func TestGetHitAfterReopen(t *testing.T) {
	_, cfg, res, path := storeWith(t)
	s := reopen(t, filepath.Dir(path))
	got, ok := s.Get(res.Workload, cfg)
	if !ok {
		t.Fatal("stored entry did not survive reopen")
	}
	if !sameResult(res, got) {
		t.Fatalf("reopened entry differs:\n in: %+v\nout: %+v", res, got)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v, want 1 hit, 0 misses", st)
	}
}

// TestCorruptEntriesReadAsMiss runs the corruption/compat cases through
// the result codec: a truncated file, a flipped header byte, a stale
// schema version and another machine's entry under this key's name must
// each read as a clean miss — never an error, never a wrong Result — and
// recompute + rewrite must then work. internal/blobstore holds the full
// envelope suite.
func TestCorruptEntriesReadAsMiss(t *testing.T) {
	for name, corrupt := range map[string]func(t *testing.T, path string, cfg core.Config, res *core.Result){
		"truncated file": func(t *testing.T, path string, _ core.Config, _ *core.Result) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"empty file": func(t *testing.T, path string, _ core.Config, _ *core.Result) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"flipped header byte": func(t *testing.T, path string, _ core.Config, _ *core.Result) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(format.Magic)+2+4+3] ^= 0x40 // inside the identity echo
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"flipped payload byte": func(t *testing.T, path string, _ core.Config, _ *core.Result) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-12] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"stale schema version": func(t *testing.T, path string, cfg core.Config, res *core.Result) {
			// A well-formed entry (valid checksum, right identity) written
			// by a previous schema: the version gate alone must miss it.
			stale := format
			stale.Version--
			b, err := blobstore.Open(filepath.Dir(path), 0, stale)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Put(identity(res.Workload, cfg), encodePayload(res)); err != nil {
				t.Fatal(err)
			}
		},
		"implausible thread count": func(t *testing.T, path string, cfg core.Config, res *core.Result) {
			// A well-formed envelope around a payload that claims 2^32-1
			// threads and carries none: decoding must refuse it, not
			// allocate for it.
			noThreads := *res
			noThreads.Threads = nil
			payload := encodePayload(&noThreads)
			binary.LittleEndian.PutUint32(payload[len(payload)-4:], math.MaxUint32)
			b, err := blobstore.Open(filepath.Dir(path), 0, format)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Put(identity(res.Workload, cfg), payload); err != nil {
				t.Fatal(err)
			}
		},
		"fingerprint mismatch": func(t *testing.T, path string, cfg core.Config, res *core.Result) {
			// An entry for a DIFFERENT machine parked under this key's file
			// name (as a colliding or misplaced write would): the identity
			// check must refuse it rather than serve the other machine's
			// result.
			other := cfg
			other.Seed += 1
			s, err := Open(filepath.Dir(path), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(res.Workload, other, res); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(entryPath(filepath.Dir(path), res.Workload, other), path); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			_, cfg, res, path := storeWith(t)
			corrupt(t, path, cfg, res)
			s := reopen(t, filepath.Dir(path))
			if got, ok := s.Get(res.Workload, cfg); ok {
				t.Fatalf("corrupt entry served as a hit: %+v", got)
			}
			if st := s.Stats(); st.Misses != 1 || st.Hits != 0 {
				t.Errorf("stats = %+v, want 1 miss, 0 hits", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("unusable entry not deleted (err=%v)", err)
			}
			// Recompute + rewrite: the key is immediately writable and
			// readable again.
			if err := s.Put(res.Workload, cfg, res); err != nil {
				t.Fatalf("rewrite after miss: %v", err)
			}
			got, ok := s.Get(res.Workload, cfg)
			if !ok || !sameResult(res, got) {
				t.Fatalf("rewrite did not restore the entry (ok=%v)", ok)
			}
		})
	}
}

// TestDistinctKeysDistinctFiles: changing any part of the key changes the
// identity, and so the entry file, so results can never overwrite each
// other.
func TestDistinctKeysDistinctFiles(t *testing.T) {
	cfg := core.DefaultConfig()
	other := cfg
	other.Pipeline.IntRegs++
	names := map[string]bool{
		string(identity("art+mcf", cfg)):   true,
		string(identity("art+mcf", other)): true,
		string(identity("art+gcc", cfg)):   true,
	}
	if len(names) != 3 {
		t.Fatalf("key collisions across distinct keys: %v", names)
	}
}

// TestEvictionIsByteBoundedLRA: the GC deletes least-recently-accessed
// entries until the byte bound holds, and a Get refreshes recency.
func TestEvictionIsByteBoundedLRA(t *testing.T) {
	dir := t.TempDir()
	res := randResult(rand.New(rand.NewSource(9)))
	cfgN := func(i int) core.Config {
		cfg := core.DefaultConfig()
		cfg.Seed = uint64(100 + i)
		return cfg
	}
	probe, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Put("w", cfgN(0), res); err != nil {
		t.Fatal(err)
	}
	entrySize := probe.Stats().Bytes

	// Bound: three entries fit, the fourth forces one eviction.
	s, err := Open(dir, 3*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put("w", cfgN(i), res); err != nil {
			t.Fatal(err)
		}
	}
	// Touch entry 0: it becomes most recently accessed, so entry 1 is now
	// the eviction victim.
	if _, ok := s.Get("w", cfgN(0)); !ok {
		t.Fatal("entry 0 missing before overflow")
	}
	if err := s.Put("w", cfgN(3), res); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("stats = %+v, want exactly 1 eviction", st)
	}
	if st.Bytes > 3*entrySize || st.Files != 3 {
		t.Fatalf("stats = %+v beyond bound %d", st, 3*entrySize)
	}
	if _, ok := s.Get("w", cfgN(1)); ok {
		t.Error("least-recently-accessed entry 1 survived the eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := s.Get("w", cfgN(i)); !ok {
			t.Errorf("entry %d was evicted, want entry 1", i)
		}
	}
}

// TestBoundEnforcedAtOpen: a store reopened with a smaller bound sheds
// oldest entries immediately.
func TestBoundEnforcedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := randResult(rand.New(rand.NewSource(11)))
	var size int64
	for i := 0; i < 4; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = uint64(i + 1)
		if err := s.Put("w", cfg, res); err != nil {
			t.Fatal(err)
		}
		size = s.Stats().Bytes / int64(i+1)
	}
	s2, err := Open(dir, 2*size)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Files != 2 || st.Evictions != 2 || st.Bytes > 2*size {
		t.Fatalf("stats after bounded reopen = %+v, want 2 files kept", st)
	}
}

// TestPutReplacesAtomically: overwriting a key keeps exactly one file's
// worth of accounting and temp files never accumulate.
func TestPutReplacesAtomically(t *testing.T) {
	s, cfg, res, path := storeWith(t)
	first := s.Stats()
	res2 := randResult(rand.New(rand.NewSource(8)))
	res2.Workload = res.Workload
	if err := s.Put(res.Workload, cfg, res2); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Files != 1 {
		t.Errorf("files = %d after overwrite, want 1", st.Files)
	}
	if st.Bytes <= 0 || st.Bytes > first.Bytes+int64(len(res2.Threads)*200)+200 {
		t.Errorf("bytes accounting drifted: %d -> %d", first.Bytes, st.Bytes)
	}
	got, ok := s.Get(res.Workload, cfg)
	if !ok || !sameResult(res2, got) {
		t.Fatal("overwrite did not replace the stored result")
	}
	des, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if filepath.Ext(de.Name()) != format.Suffix {
			t.Errorf("stray non-entry file %q in store dir", de.Name())
		}
	}
}

// TestExternalDeletionDropsAccounting: when a sharing process's GC
// deletes an entry, the next Get both misses and drops the stale
// accounting, so Bytes/Files cannot drift and evict cannot chase ghosts.
func TestExternalDeletionDropsAccounting(t *testing.T) {
	s, cfg, res, path := storeWith(t)
	if st := s.Stats(); st.Files != 1 {
		t.Fatalf("stats = %+v, want 1 file", st)
	}
	os.Remove(path) // the other process's eviction
	if _, ok := s.Get(res.Workload, cfg); ok {
		t.Fatal("deleted entry served as a hit")
	}
	if st := s.Stats(); st.Files != 0 || st.Bytes != 0 {
		t.Errorf("stats = %+v after external deletion, want empty accounting", st)
	}
}

// TestSharedDirAdoption: a Get can serve an entry written by another
// store instance (a second daemon sharing the directory) after open.
func TestSharedDirAdoption(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	res := randResult(rand.New(rand.NewSource(13)))
	if err := a.Put("w", cfg, res); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get("w", cfg)
	if !ok || !sameResult(res, got) {
		t.Fatal("store b did not serve store a's entry")
	}
	if st := b.Stats(); st.Files != 1 || st.Bytes == 0 {
		t.Errorf("adopted entry not accounted: %+v", st)
	}
}

// TestOpenSweepsStaleTempFiles: a writer killed between create and
// rename leaves a ".tmp-" file (internal/blobstore's in-progress write
// prefix); reopening the result store deletes it so kill/restart cycles
// cannot leak disk outside the byte bound.
func TestOpenSweepsStaleTempFiles(t *testing.T) {
	_, cfg, res, path := storeWith(t)
	stale := filepath.Join(filepath.Dir(path), ".tmp-orphan")
	if err := os.WriteFile(stale, []byte("half-written entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := reopen(t, filepath.Dir(path))
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived reopen (err=%v)", err)
	}
	if _, ok := s.Get(res.Workload, cfg); !ok {
		t.Error("real entry lost while sweeping temp files")
	}
}

// survivorFiles lists the store directory's entry files, sorted.
func survivorFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == format.Suffix {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// TestEvictionVictimDeterministic: the result store's eviction (the
// blobstore victim with the unique minimum access seq) is deterministic
// end to end, so two stores driven through an identical Put/Get history
// shed exactly the same entries, whatever order their accounting maps
// happen to iterate in.
func TestEvictionVictimDeterministic(t *testing.T) {
	res := randResult(rand.New(rand.NewSource(11)))
	cfgN := func(i int) core.Config {
		cfg := core.DefaultConfig()
		cfg.Seed = uint64(200 + i)
		return cfg
	}
	probe, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Put("w", cfgN(0), res); err != nil {
		t.Fatal(err)
	}
	entrySize := probe.Stats().Bytes

	history := func(t *testing.T) []string {
		dir := t.TempDir()
		s, err := Open(dir, 4*entrySize)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if err := s.Put("w", cfgN(i), res); err != nil {
				t.Fatal(err)
			}
			// Interleaved rereads decouple recency from insertion order.
			if i%3 == 0 {
				s.Get("w", cfgN(i/2))
			}
		}
		if st := s.Stats(); st.Evictions == 0 {
			t.Fatalf("history produced no evictions: %+v", st)
		}
		return survivorFiles(t, dir)
	}
	a, b := history(t), history(t)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical histories left different survivors:\n a: %v\n b: %v", a, b)
	}
}
