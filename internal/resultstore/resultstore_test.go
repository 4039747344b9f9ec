package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"syscall"
	"testing"
	"time"

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

// FuzzDecodePayload drives the read path with arbitrary payload bytes:
// decodePayload must never panic, and whatever it accepts must survive
// an encode/decode round trip unchanged.
func FuzzDecodePayload(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		p := encodePayload(randResult(r))
		f.Add(p)
		f.Add(p[:len(p)-1])
		f.Add(p[:len(p)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodePayload(data)
		if err != nil {
			return
		}
		again, err := decodePayload(encodePayload(res))
		if err != nil {
			t.Fatalf("re-encoding an accepted payload does not decode: %v", err)
		}
		if !sameResult(res, again) {
			t.Fatalf("round trip changed an accepted result:\n in: %+v\nout: %+v", res, again)
		}
	})
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

// TestEntryBytesGolden pins every byte of the entry file storeWith
// writes — envelope, identity, payload and CRC trailer — by its SHA-256:
// a store directory an earlier release filled must keep serving hits.
func TestEntryBytesGolden(t *testing.T) {
	_, _, _, path := storeWith(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "58cee13c674d6907ed706047794bb28e410699a1a8c54c266270b61da25c0650"
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("entry file (%d bytes) has SHA-256 %s, want %s", len(data), got, want)
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

// open opens the store in dir under maxBytes; reopening a directory
// drops the in-process state, as a daemon restart would.
func open(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cfgN and resultN build the fixed-size entries of the multi-entry
// tests: key i is ("w", cfgN(i)) and stores resultN(i). Every such
// entry file has the same size, and each carries its own Cycles.
func cfgN(i int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = uint64(100 + i)
	return cfg
}

func resultN(i int) *core.Result {
	res := randResult(rand.New(rand.NewSource(9)))
	res.Cycles = uint64(i)
	return res
}

func put(t *testing.T, s *Store, i int) {
	t.Helper()
	if err := s.Put("w", cfgN(i), resultN(i)); err != nil {
		t.Fatal(err)
	}
}

// has reports whether key i is a hit carrying its own result.
func has(s *Store, i int) bool {
	got, ok := s.Get("w", cfgN(i))
	return ok && sameResult(resultN(i), got)
}

// entrySize is the on-disk size of every cfgN/resultN entry.
func entrySize(t *testing.T) int64 {
	t.Helper()
	s := open(t, t.TempDir(), 0)
	put(t, s, 0)
	return s.Stats().Bytes
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
		if filepath.Ext(e.Name()) == ".smtres" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

func TestGetHitAfterReopen(t *testing.T) {
	_, cfg, res, path := storeWith(t)
	s := open(t, filepath.Dir(path), 0)
	got, ok := s.Get(res.Workload, cfg)
	if !ok {
		t.Fatal("stored entry did not survive reopen")
	}
	if !sameResult(res, got) {
		t.Fatalf("reopened entry differs:\n in: %+v\nout: %+v", res, got)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 0 || st.Files != 1 {
		t.Errorf("stats = %+v, want 1 hit, 0 misses, 1 file", st)
	}
}

// rewrite replaces the file at path with edit(its contents).
func rewrite(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// reseal replaces the entry at path with edit(its body) under a freshly
// computed CRC-32 trailer: a well-formed envelope, as an older release
// or another tier would have written it.
func reseal(t *testing.T, path string, edit func(body []byte) []byte) {
	t.Helper()
	rewrite(t, path, func(b []byte) []byte {
		body := edit(b[:len(b)-4])
		return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	})
}

// TestCorruptEntriesReadAsMiss is the corruption/compat suite: every
// envelope defect, a well-formed envelope around a payload the codec
// refuses, and a path that cannot be read as a file at all reads as one
// clean miss that deletes what sits at the entry's path — never an
// error, never a wrong Result — and recompute + rewrite then works. An
// envelope defect must be caught by verify alone, so a damaged entry
// never reaches decodePayload. Every row probes through a reopened store
// and through the store that wrote the entry.
func TestCorruptEntriesReadAsMiss(t *testing.T) {
	// The envelope is "SMRS" | version u16 | identity length u32 |
	// identity | payload | CRC-32.
	const head = 4 + 2 + 4
	for name, tc := range map[string]struct {
		corrupt func(t *testing.T, path string, cfg core.Config, res *core.Result)
		// envelopeOK marks the rows whose envelope is intact and whose
		// payload the codec must refuse.
		envelopeOK bool
	}{
		"truncated file": {corrupt: func(t *testing.T, path string, _ core.Config, _ *core.Result) {
			rewrite(t, path, func(b []byte) []byte { return b[:len(b)/2] })
		}},
		"empty file": {corrupt: func(t *testing.T, path string, _ core.Config, _ *core.Result) {
			rewrite(t, path, func([]byte) []byte { return nil })
		}},
		"flipped header byte": {corrupt: func(t *testing.T, path string, _ core.Config, _ *core.Result) {
			rewrite(t, path, func(b []byte) []byte { b[head+3] ^= 0x40; return b }) // inside the identity echo
		}},
		"flipped payload byte": {corrupt: func(t *testing.T, path string, _ core.Config, _ *core.Result) {
			rewrite(t, path, func(b []byte) []byte { b[len(b)-12] ^= 0x01; return b })
		}},
		"flipped checksum byte": {corrupt: func(t *testing.T, path string, _ core.Config, _ *core.Result) {
			rewrite(t, path, func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b })
		}},
		"stale schema version": {corrupt: func(t *testing.T, path string, _ core.Config, _ *core.Result) {
			// A well-formed entry (valid checksum, right identity) written
			// by a previous schema: the version gate alone must miss it.
			reseal(t, path, func(body []byte) []byte {
				binary.LittleEndian.PutUint16(body[4:], schemaVersion-1)
				return body
			})
		}},
		"bad magic": {corrupt: func(t *testing.T, path string, _ core.Config, _ *core.Result) {
			reseal(t, path, func(body []byte) []byte { copy(body, "ELSE"); return body })
		}},
		"implausible thread count": {envelopeOK: true, corrupt: func(t *testing.T, path string, _ core.Config, res *core.Result) {
			// A well-formed envelope around a payload that claims 2^32-1
			// threads and carries none: decoding must refuse it, not
			// allocate for it.
			noThreads := *res
			noThreads.Threads = nil
			payload := encodePayload(&noThreads)
			binary.LittleEndian.PutUint32(payload[len(payload)-4:], math.MaxUint32)
			reseal(t, path, func(body []byte) []byte {
				idLen := int(binary.LittleEndian.Uint32(body[head-4:]))
				return append(body[:head+idLen:head+idLen], payload...)
			})
		}},
		"bytes appended after the trailer": {corrupt: func(t *testing.T, path string, _ core.Config, _ *core.Result) {
			// The file outgrew the read's starting buffer: the read must
			// go on to EOF, and the trailer is then no checksum.
			rewrite(t, path, func(b []byte) []byte { return append(b, make([]byte, 3*len(b))...) })
		}},
		"directory at the entry path": {corrupt: func(t *testing.T, path string, _ core.Config, _ *core.Result) {
			// An open may succeed where no read can: the miss must still
			// clear the path, or every later rewrite fails its rename.
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(path, 0o755); err != nil {
				t.Fatal(err)
			}
		}},
		"NUL moved within the identity echo": {corrupt: func(t *testing.T, path string, _ core.Config, res *core.Result) {
			// An echo of the right length, the same bytes around it, and its
			// NUL one byte early ("art+mc\x00f..."): the piecewise check
			// must find the separator where the key puts it.
			reseal(t, path, func(body []byte) []byte {
				at := head + len(res.Workload)
				body[at-1], body[at] = body[at], body[at-1]
				return body
			})
		}},
		"separator replaced within the identity echo": {corrupt: func(t *testing.T, path string, _ core.Config, res *core.Result) {
			// Workload and canonical bytes intact, no NUL between them.
			reseal(t, path, func(body []byte) []byte {
				body[head+len(res.Workload)] = '/'
				return body
			})
		}},
		"fingerprint mismatch": {corrupt: func(t *testing.T, path string, cfg core.Config, res *core.Result) {
			// An entry for a DIFFERENT machine parked under this key's file
			// name (as a colliding or misplaced write would): the identity
			// check must refuse it rather than serve the other machine's
			// result.
			other := cfg
			other.Seed += 1
			s := open(t, filepath.Dir(path), 0)
			if err := s.Put(res.Workload, other, res); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(entryPath(filepath.Dir(path), res.Workload, other), path); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(name, func(t *testing.T) {
			// A restarted store adopted the damaged entry at Open, with
			// its on-disk size; the store that wrote it tracks the intact
			// size. Both must miss, delete, drop the accounting and take
			// the rewrite.
			for _, probe := range []string{"reopened", "writer"} {
				t.Run(probe, func(t *testing.T) {
					s, cfg, res, path := storeWith(t)
					tc.corrupt(t, path, cfg, res)
					data, _ := os.ReadFile(path)
					payload, ok := NewKey(res.Workload, cfg.Canonical()).verify(data)
					if ok != tc.envelopeOK {
						t.Fatalf("verify accepted the envelope: %v, want %v", ok, tc.envelopeOK)
					}
					if ok {
						if _, err := decodePayload(payload); err == nil {
							t.Fatal("the codec accepted a payload it must refuse")
						}
					}
					if probe == "reopened" {
						s = open(t, filepath.Dir(path), 0)
					}
					if got, ok := s.Get(res.Workload, cfg); ok {
						t.Fatalf("corrupt entry served as a hit: %+v", got)
					}
					if st := s.Stats(); st.Misses != 1 || st.Hits != 0 || st.Files != 0 || st.Bytes != 0 {
						t.Errorf("stats = %+v, want 1 miss, 0 hits, nothing tracked", st)
					}
					if _, err := os.Stat(path); !os.IsNotExist(err) {
						t.Errorf("unusable entry not deleted (err=%v)", err)
					}
					// Recompute + rewrite: the key is immediately writable
					// and readable again.
					if err := s.Put(res.Workload, cfg, res); err != nil {
						t.Fatalf("rewrite after miss: %v", err)
					}
					got, ok := s.Get(res.Workload, cfg)
					if !ok || !sameResult(res, got) {
						t.Fatalf("rewrite did not restore the entry (ok=%v)", ok)
					}
				})
			}
		})
	}
}

// TestVerifyRefusesEveryPrefix: a crash can leave any prefix of an
// entry under its name, and the envelope check alone must refuse each
// one, so a torn entry never reaches decodePayload. internal/blobstore's
// TestTornEntryAtEveryOffset checks the store's side: every torn Get
// misses and deletes the file.
func TestVerifyRefusesEveryPrefix(t *testing.T) {
	_, cfg, res, path := storeWith(t)
	entry, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey(res.Workload, cfg.Canonical())
	if _, ok := k.verify(entry); !ok {
		t.Fatal("the intact entry failed the envelope check")
	}
	for n := 0; n < len(entry); n++ {
		if _, ok := k.verify(entry[:n]); ok {
			t.Fatalf("entry torn at %d of %d bytes passed the envelope check", n, len(entry))
		}
	}
}

// TestDistinctKeysDistinctFiles: changing any part of the key changes the
// identity, and so the entry file, so results can never overwrite each
// other.
func TestDistinctKeysDistinctFiles(t *testing.T) {
	cfg := core.DefaultConfig()
	other := cfg
	other.Pipeline.IntRegs++
	keys := []struct {
		workload string
		cfg      core.Config
	}{{"art+mcf", cfg}, {"art+mcf", other}, {"art+gcc", cfg}}
	dir := t.TempDir()
	s := open(t, dir, 0)
	for i, k := range keys {
		if err := s.Put(k.workload, k.cfg, resultN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if names := survivorFiles(t, dir); len(names) != len(keys) {
		t.Fatalf("%d keys landed in %d files: %v", len(keys), len(names), names)
	}
	for i, k := range keys {
		if got, ok := s.Get(k.workload, k.cfg); !ok || !sameResult(resultN(i), got) {
			t.Errorf("key %d (%s): ok=%v, or another key's result", i, k.workload, ok)
		}
	}
}

// TestEvictionIsByteBoundedLRA: the GC deletes least-recently-accessed
// entries until the byte bound holds, and a Get refreshes recency.
func TestEvictionIsByteBoundedLRA(t *testing.T) {
	size := entrySize(t)
	// Bound: three entries fit, the fourth forces one eviction.
	s := open(t, t.TempDir(), 3*size)
	for i := 0; i < 3; i++ {
		put(t, s, i)
	}
	// Touch entry 0: it becomes most recently accessed, so entry 1 is now
	// the eviction victim.
	if !has(s, 0) {
		t.Fatal("entry 0 missing before overflow")
	}
	put(t, s, 3)
	st := s.Stats()
	if st.Evictions != 1 || st.Files != 3 || st.Bytes > 3*size {
		t.Fatalf("stats = %+v, want 1 eviction and 3 files within %d bytes", st, 3*size)
	}
	if has(s, 1) {
		t.Error("least-recently-accessed entry 1 survived the eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if !has(s, i) {
			t.Errorf("entry %d was evicted, want entry 1", i)
		}
	}
}

// TestBoundEnforcedAtOpen: a store reopened with a smaller bound sheds
// its oldest entries immediately.
func TestBoundEnforcedAtOpen(t *testing.T) {
	size := entrySize(t)
	dir := t.TempDir()
	s := open(t, dir, 0)
	for i := 0; i < 4; i++ {
		put(t, s, i)
	}
	if st := open(t, dir, 2*size).Stats(); st.Files != 2 || st.Evictions != 2 || st.Bytes > 2*size {
		t.Fatalf("stats after bounded reopen = %+v, want 2 files kept", st)
	}
}

// TestPutReplacesAtomically: overwriting a key keeps exactly one file's
// worth of accounting and leaves no temp files behind.
func TestPutReplacesAtomically(t *testing.T) {
	s, cfg, res, path := storeWith(t)
	res2 := randResult(rand.New(rand.NewSource(8)))
	res2.Workload = res.Workload
	if err := s.Put(res.Workload, cfg, res2); err != nil {
		t.Fatal(err)
	}
	// magic, version, identity length, identity, payload, CRC.
	want := int64(4 + 2 + 4 + NewKey(res.Workload, cfg.Canonical()).idLen() + len(encodePayload(res2)) + 4)
	if st := s.Stats(); st.Files != 1 || st.Bytes != want {
		t.Errorf("stats = %+v after overwrite, want 1 file of %d bytes", st, want)
	}
	got, ok := s.Get(res.Workload, cfg)
	if !ok || !sameResult(res2, got) {
		t.Fatal("overwrite did not replace the stored result")
	}
	des, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 {
		t.Errorf("store dir holds %d files after an overwrite, want 1", len(des))
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
	if st := s.Stats(); st.Files != 0 || st.Bytes != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v after external deletion, want one miss and empty accounting", st)
	}
}

// TestSharedDirAdoption: a Get serves, and accounts for, an entry
// another store instance (a second daemon sharing the directory) wrote
// after this one opened.
func TestSharedDirAdoption(t *testing.T) {
	dir := t.TempDir()
	a, b := open(t, dir, 0), open(t, dir, 0)
	cfg := core.DefaultConfig()
	res := randResult(rand.New(rand.NewSource(13)))
	if err := a.Put("w", cfg, res); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get("w", cfg)
	if !ok || !sameResult(res, got) {
		t.Fatal("store b did not serve store a's entry")
	}
	if st := b.Stats(); st.Files != 1 || st.Bytes != a.Stats().Bytes {
		t.Errorf("adopted entry not accounted: %+v", st)
	}
}

// TestOpenSweepsStaleTempFiles: a writer killed between create and
// rename leaves a ".tmp-" file; reopening the store deletes it so
// kill/restart cycles cannot leak disk outside the byte bound.
func TestOpenSweepsStaleTempFiles(t *testing.T) {
	_, cfg, res, path := storeWith(t)
	stale := filepath.Join(filepath.Dir(path), ".tmp-orphan")
	if err := os.WriteFile(stale, []byte("half-written entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, filepath.Dir(path), 0)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived reopen (err=%v)", err)
	}
	if _, ok := s.Get(res.Workload, cfg); !ok {
		t.Error("real entry lost while sweeping temp files")
	}
}

// TestEvictionVictimDeterministic locks the claim evict rests on: the
// victim is the entry with the unique minimum access seq, so two stores
// driven through an identical Put/Get history shed exactly the same
// entries, whatever order their accounting maps happen to iterate in.
func TestEvictionVictimDeterministic(t *testing.T) {
	size := entrySize(t)
	history := func() []string {
		dir := t.TempDir()
		s := open(t, dir, 4*size)
		for i := 0; i < 12; i++ {
			put(t, s, i)
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
	a, b := history(), history()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical histories left different survivors:\n a: %v\n b: %v", a, b)
	}
}

// TestOnlyADamagedEntryIsDeleted: a miss deletes the file only when it
// opened and then failed to read or verify, or when a directory sits at
// its path. An open that fails for want of descriptors, permission or
// the file itself says nothing about the entry, so a stored result
// survives it.
func TestOnlyADamagedEntryIsDeleted(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, true}, // read whole, refused by verify or decode
		{&fs.PathError{Op: "read", Err: syscall.EIO}, true},
		{&fs.PathError{Op: "read", Err: syscall.EISDIR}, true},
		{&fs.PathError{Op: "open", Err: syscall.EISDIR}, true},
		{&fs.PathError{Op: "open", Err: syscall.ENOENT}, false},
		{&fs.PathError{Op: "open", Err: syscall.EMFILE}, false},
		{&fs.PathError{Op: "open", Err: syscall.EACCES}, false},
	} {
		if got := damaged(tc.err); got != tc.want {
			t.Errorf("damaged(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestHitKeepsRecencyAcrossReopen: a Get hit bumps its file's mtime, so
// the entry keeps its place in the eviction order across a restart.
// Without the bump the hit entry would still be the oldest on disk, and
// the first a smaller bound deletes at Open.
func TestHitKeepsRecencyAcrossReopen(t *testing.T) {
	size := entrySize(t)
	dir := t.TempDir()
	s := open(t, dir, 0)
	const n = 4
	base := time.Now().Add(-time.Hour)
	newest := base.Add((n - 1) * time.Minute)
	for i := 0; i < n; i++ {
		put(t, s, i)
		mtime := base.Add(time.Duration(i) * time.Minute) // entry 0 is the oldest
		if err := os.Chtimes(entryPath(dir, "w", cfgN(i)), mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	if !has(s, 0) {
		t.Fatal("entry 0 missing before the reopen")
	}
	info, err := os.Stat(entryPath(dir, "w", cfgN(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().After(newest) {
		t.Fatalf("hit left entry 0's mtime at %v, want it after the newest entry's %v", info.ModTime(), newest)
	}
	open(t, dir, (n-1)*size)
	var want []string
	for _, i := range []int{0, 2, 3} {
		want = append(want, filepath.Base(entryPath(dir, "w", cfgN(i))))
	}
	sort.Strings(want)
	if got := survivorFiles(t, dir); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened one entry smaller: kept %v, want entries 0, 2 and 3 %v (entry 1 is the oldest after the hit)", got, want)
	}
}

// hitEntry stores one two-thread cell, shaped like a served sweep's, and
// returns the store and its prepared key.
func hitEntry(t testing.TB) (*Store, Key) {
	t.Helper()
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{Workload: "MEM2/art+mcf", Policy: core.PolicyRaT, Cycles: 12345,
		ExecutedTotal: 9000, CommittedTotal: 6000, Threads: []core.ThreadResult{
			{Benchmark: "art", Committed: 3000, IPC: 0.4, L2MissLoads: 17},
			{Benchmark: "mcf", Committed: 3000, IPC: 0.3, RunaheadEpisodes: 5},
		}}
	k := NewKey(res.Workload, core.DefaultConfig().Canonical())
	if err := s.PutKey(k, res); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.GetKey(k); !ok || !sameResult(res, got) {
		t.Fatalf("stored cell did not read back (ok=%v)", ok)
	}
	return s, k
}

// TestDiskHitAllocs pins what a keyed hit allocates: the entry path and
// its NUL-terminated copy for the open, and the Result with its strings and
// thread slice (six for two threads). The identity, the entry name and
// the read buffer cost nothing per probe.
func TestDiskHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	s, k := hitEntry(t)
	const want = 8
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := s.GetKey(k); !ok {
			t.Fatal("stored cell missed")
		}
	}); n > want {
		t.Errorf("a keyed disk hit makes %v allocations, want at most %d", n, want)
	}
}

// BenchmarkGetHit measures one keyed disk hit of a two-thread cell: the
// open, read, envelope check, decode and recency bump.
func BenchmarkGetHit(b *testing.B) {
	s, k := hitEntry(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := s.GetKey(k); !ok {
			b.Fatal("stored cell missed")
		}
	}
}
