// Package blobstore_test checks internal/resultstore's on-disk contract
// from outside the package: it uses only the exported Store API and the
// entry files themselves, which is all a second process sharing the
// directory has. The envelope, file naming, temp-file sweep, adoption
// and eviction rules it exercises are the ones resultstore's package doc
// states. The directory holds tests only; it keeps the name the disk
// tier had when the envelope was a package of its own, so these tests
// keep their names. resultstore's own suite covers what needs the
// package's internals: the codec, verify and the write-fault hook.
package blobstore_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
)

// The envelope is magic | version u16 | identity length u32 | identity |
// payload | CRC-32, and entry files end in suffix.
const (
	head   = 4 + 2 + 4
	suffix = ".smtres"
)

// key i is ("w", cfg(i)) and stores result(i). Every such entry has the
// same file size, and each carries its own Cycles.
func cfg(i int) core.Config {
	c := core.DefaultConfig()
	c.Seed = uint64(100 + i)
	return c
}

func result(i int) *core.Result {
	return &core.Result{Workload: "w", Policy: core.PolicyKind("RaT"), Cycles: uint64(i),
		ExecutedTotal: 4000, CommittedTotal: 3000,
		Threads: []core.ThreadResult{
			{Benchmark: "art", Committed: 1000, IPC: 0.75, Executed: 1500},
			{Benchmark: "mcf", Committed: 2000, IPC: 0.25, Executed: 2500, L2MissLoads: 40},
		}}
}

// entryPath is the file key i lives in: the SHA-256 of workload + "\x00"
// + canonical config, plus the suffix.
func entryPath(dir string, i int) string {
	sum := sha256.Sum256([]byte("w\x00" + cfg(i).Canonical()))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+suffix)
}

func open(t *testing.T, dir string, maxBytes int64) *resultstore.Store {
	t.Helper()
	s, err := resultstore.Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func put(t *testing.T, s *resultstore.Store, i int) {
	t.Helper()
	if err := s.Put("w", cfg(i), result(i)); err != nil {
		t.Fatal(err)
	}
}

// has reports whether key i is a hit carrying its own result.
func has(s *resultstore.Store, i int) bool {
	got, ok := s.Get("w", cfg(i))
	return ok && reflect.DeepEqual(got, result(i))
}

// entrySize is the on-disk size of every test entry.
func entrySize(t *testing.T) int64 {
	t.Helper()
	s := open(t, t.TempDir(), 0)
	put(t, s, 0)
	return s.Stats().Bytes
}

// storeWith opens a store in a temp dir holding entry 0 and returns the
// directory.
func storeWith(t *testing.T) (*resultstore.Store, string) {
	t.Helper()
	dir := t.TempDir()
	s := open(t, dir, 0)
	put(t, s, 0)
	if _, err := os.Stat(entryPath(dir, 0)); err != nil {
		t.Fatalf("entry not under its content-addressed name: %v", err)
	}
	return s, dir
}

// entryNames lists the directory's entry files, sorted.
func entryNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		if filepath.Ext(de.Name()) == suffix {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	return names
}

func TestGetHitAfterReopen(t *testing.T) {
	_, dir := storeWith(t)
	s := open(t, dir, 0)
	if !has(s, 0) {
		t.Fatal("stored entry did not survive reopen")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 0 || st.Files != 1 {
		t.Errorf("stats = %+v, want 1 hit, 0 misses, 1 file", st)
	}
}

// rewrite replaces the file at path with f(its contents).
func rewrite(t *testing.T, path string, f func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// reseal replaces the entry at path with edit(its body) under a freshly
// computed CRC-32 trailer: a well-formed envelope, as another writer
// would have left it.
func reseal(t *testing.T, path string, edit func(body []byte) []byte) {
	t.Helper()
	rewrite(t, path, func(b []byte) []byte {
		body := edit(b[:len(b)-4])
		return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	})
}

// TestCorruptEntriesReadAsMiss is the corruption/compat suite: every
// envelope defect, and a payload the codec refuses, reads as one clean
// miss that deletes the file — never a hit with a wrong result — and the
// key is immediately rewritable.
func TestCorruptEntriesReadAsMiss(t *testing.T) {
	for name, corrupt := range map[string]func(t *testing.T, path string){
		"truncated file": func(t *testing.T, path string) {
			rewrite(t, path, func(b []byte) []byte { return b[:len(b)/2] })
		},
		"empty file": func(t *testing.T, path string) {
			rewrite(t, path, func([]byte) []byte { return nil })
		},
		"flipped identity byte": func(t *testing.T, path string) {
			rewrite(t, path, func(b []byte) []byte { b[head+1] ^= 0x40; return b })
		},
		"flipped payload byte": func(t *testing.T, path string) {
			rewrite(t, path, func(b []byte) []byte { b[len(b)-12] ^= 0x01; return b })
		},
		"flipped checksum byte": func(t *testing.T, path string) {
			rewrite(t, path, func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b })
		},
		"stale version": func(t *testing.T, path string) {
			// A well-formed entry (valid checksum, right identity) in an
			// older version: the version gate alone must miss it.
			reseal(t, path, func(body []byte) []byte {
				binary.LittleEndian.PutUint16(body[4:], binary.LittleEndian.Uint16(body[4:])-1)
				return body
			})
		},
		"bad magic": func(t *testing.T, path string) {
			reseal(t, path, func(body []byte) []byte { copy(body, "ELSE"); return body })
		},
		"identity mismatch": func(t *testing.T, path string) {
			// Another key's entry parked under this one's file name, as a
			// colliding or misplaced write would leave it.
			dir := filepath.Dir(path)
			put(t, open(t, dir, 0), 1)
			if err := os.Rename(entryPath(dir, 1), path); err != nil {
				t.Fatal(err)
			}
		},
		"decoder error": func(t *testing.T, path string) {
			// A well-formed envelope whose payload carries one byte past
			// the encoded result: the codec refuses it.
			reseal(t, path, func(body []byte) []byte { return append(body, 0) })
		},
	} {
		t.Run(name, func(t *testing.T) {
			_, dir := storeWith(t)
			path := entryPath(dir, 0)
			corrupt(t, path)
			s := open(t, dir, 0)
			if got, ok := s.Get("w", cfg(0)); ok {
				t.Fatalf("defective entry served as a hit: %+v", got)
			}
			if st := s.Stats(); st.Misses != 1 || st.Hits != 0 {
				t.Errorf("stats = %+v, want 1 miss, 0 hits", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("unusable entry not deleted (err=%v)", err)
			}
			put(t, s, 0)
			if !has(s, 0) {
				t.Fatal("rewrite did not restore the entry")
			}
		})
	}
}

// TestDistinctIdentitiesDistinctFiles: content addressing gives every
// key its own file, so entries can never overwrite each other.
func TestDistinctIdentitiesDistinctFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	for i := 0; i < 3; i++ {
		put(t, s, i)
	}
	if names := entryNames(t, dir); len(names) != 3 {
		t.Fatalf("3 keys landed in %d files: %v", len(names), names)
	}
	for i := 0; i < 3; i++ {
		if !has(s, i) {
			t.Errorf("key %d missed or served another key's result", i)
		}
	}
}

// TestEvictionIsByteBoundedLRA: the GC deletes least-recently-accessed
// entries until the byte bound holds, and a Get refreshes recency.
func TestEvictionIsByteBoundedLRA(t *testing.T) {
	size := entrySize(t)
	s := open(t, t.TempDir(), 3*size)
	for i := 0; i < 3; i++ {
		put(t, s, i)
	}
	// Touch entry 0: entry 1 becomes the eviction victim.
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
	s, dir := storeWith(t)
	replacement := result(0)
	replacement.Threads = append(replacement.Threads, core.ThreadResult{Benchmark: "gcc", IPC: 1})
	if err := s.Put("w", cfg(0), replacement); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(entryPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Files != 1 || st.Bytes != fi.Size() {
		t.Errorf("stats = %+v after overwrite, want 1 file of %d bytes", st, fi.Size())
	}
	if got, ok := s.Get("w", cfg(0)); !ok || !reflect.DeepEqual(got, replacement) {
		t.Fatalf("overwrite did not replace the result: ok=%v result=%+v", ok, got)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 {
		t.Errorf("store dir holds %d files after an overwrite, want 1", len(des))
	}
}

// TestOpenSweepsStaleTempFiles: a writer killed between create and
// rename leaves a ".tmp-" file; Open deletes it so kill/restart cycles
// cannot leak disk outside the byte bound.
func TestOpenSweepsStaleTempFiles(t *testing.T) {
	_, dir := storeWith(t)
	stale := filepath.Join(dir, ".tmp-orphan")
	if err := os.WriteFile(stale, []byte("half-written entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, 0)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived reopen (err=%v)", err)
	}
	if !has(s, 0) {
		t.Error("real entry lost while sweeping temp files")
	}
}

// TestExternalDeletionDropsAccounting: when a sharing process's GC
// deletes an entry, the next Get both misses and drops the stale
// accounting, so Bytes/Files cannot drift and evict cannot chase ghosts.
func TestExternalDeletionDropsAccounting(t *testing.T) {
	s, dir := storeWith(t)
	os.Remove(entryPath(dir, 0)) // the other process's eviction
	if _, ok := s.Get("w", cfg(0)); ok {
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
	put(t, a, 0)
	if !has(b, 0) {
		t.Fatal("store b did not serve store a's entry")
	}
	if st := b.Stats(); st.Files != 1 || st.Bytes != a.Stats().Bytes {
		t.Errorf("adopted entry not accounted: %+v", st)
	}
}

// TestEvictionVictimDeterministic: the victim is the entry with the
// unique minimum access seq, so two stores driven through an identical
// Put/Get history shed exactly the same entries, whatever order their
// accounting maps happen to iterate in.
func TestEvictionVictimDeterministic(t *testing.T) {
	size := entrySize(t)
	history := func() []string {
		dir := t.TempDir()
		s := open(t, dir, 4*size)
		for i := 0; i < 12; i++ {
			put(t, s, i)
			// Interleaved rereads decouple recency from insertion order.
			if i%3 == 0 {
				s.Get("w", cfg(i/2))
			}
		}
		if st := s.Stats(); st.Evictions == 0 {
			t.Fatalf("history produced no evictions: %+v", st)
		}
		return entryNames(t, dir)
	}
	a, b := history(), history()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical histories left different survivors:\n a: %v\n b: %v", a, b)
	}
}

// TestReopenEvictsOldestMtimeFirst: recency survives a restart through
// file modification times. Ten entries get distinct mtimes in an order
// unrelated to their file names or write order; reopening under a bound
// one entry smaller each time must delete exactly the oldest remaining
// entry, every time.
func TestReopenEvictsOldestMtimeFirst(t *testing.T) {
	size := entrySize(t)
	dir := t.TempDir()
	s := open(t, dir, 0)
	age := []int{3, 9, 0, 7, 1, 8, 5, 2, 6, 4} // entry i is the age[i]-th oldest
	base := time.Now().Add(-time.Hour)
	byAge := make([]string, len(age))
	for i, a := range age {
		put(t, s, i)
		path := entryPath(dir, i)
		mtime := base.Add(time.Duration(a) * time.Minute)
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		byAge[a] = filepath.Base(path)
	}
	for kept := len(age) - 1; kept > 0; kept-- {
		open(t, dir, int64(kept)*size)
		want := append([]string(nil), byAge[len(age)-kept:]...)
		sort.Strings(want)
		if got := entryNames(t, dir); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened to keep %d entries: kept %v, want the %d newest %v", kept, got, kept, want)
		}
	}
}

// TestUnwritableDirectory injects a write fault no process can bypass:
// the store directory is replaced by a regular file after Open, so every
// path beneath it fails with ENOTDIR, even for root. Put must fail and
// count the failure; Get must still be a clean miss.
func TestUnwritableDirectory(t *testing.T) {
	s, dir := storeWith(t)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("w", cfg(1), result(1)); err == nil {
		t.Fatal("Put into a non-directory succeeded")
	}
	if _, ok := s.Get("w", cfg(0)); ok {
		t.Fatal("Get served a hit from a non-directory")
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Misses != 1 || st.Hits != 0 || st.Files != 0 {
		t.Errorf("stats = %+v, want 1 write error, 1 miss and no files", st)
	}
}

// TestConcurrentUse drives one bounded store from several goroutines,
// as a session's workers do: every hit must carry its own key's result,
// no write may fail, and the bound must hold afterwards.
func TestConcurrentUse(t *testing.T) {
	size := entrySize(t)
	s := open(t, t.TempDir(), 4*size)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for op := 0; op < 40; op++ {
				i := (g + op) % 6
				if op%2 == 0 {
					if err := s.Put("w", cfg(i), result(i)); err != nil {
						t.Error(err)
					}
				} else if got, ok := s.Get("w", cfg(i)); ok && !reflect.DeepEqual(got, result(i)) {
					t.Errorf("key %d served another result: %+v", i, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Bytes > 4*size || st.WriteErrors != 0 || st.Hits == 0 {
		t.Errorf("stats = %+v, want hits, no write errors and at most %d bytes", st, 4*size)
	}
}
