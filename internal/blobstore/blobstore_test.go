package blobstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

var testFormat = Format{Magic: "TEST", Version: 3, Suffix: ".blob"}

// id and payload build fixed-size identities and payloads, so every test
// entry has the same file size.
func id(i int) []byte { return []byte(fmt.Sprintf("identity-%03d", i)) }

func payload(i int) []byte { return []byte(strings.Repeat(fmt.Sprintf("payload-%03d;", i), 8)) }

// get returns a copy of the payload stored under identity.
func get(s *Store, identity []byte) ([]byte, bool) {
	var got []byte
	ok := s.Get(identity, func(p []byte) error {
		got = append([]byte(nil), p...)
		return nil
	})
	return got, ok
}

func open(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes, testFormat)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func put(t *testing.T, s *Store, i int) {
	t.Helper()
	if err := s.Put(id(i), payload(i)); err != nil {
		t.Fatal(err)
	}
}

// entrySize is the on-disk size of every test entry.
func entrySize(t *testing.T) int64 {
	t.Helper()
	s := open(t, t.TempDir(), 0)
	put(t, s, 0)
	return s.Stats().Bytes
}

// storeWith opens a store in a temp dir holding entry 0 and returns the
// entry's path.
func storeWith(t *testing.T) (*Store, string) {
	t.Helper()
	s := open(t, t.TempDir(), 0)
	put(t, s, 0)
	return s, filepath.Join(s.dir, s.name(id(0)))
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
		if strings.HasSuffix(de.Name(), testFormat.Suffix) {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	return names
}

func TestGetHitAfterReopen(t *testing.T) {
	s, _ := storeWith(t)
	s = open(t, s.dir, 0)
	got, ok := get(s, id(0))
	if !ok || string(got) != string(payload(0)) {
		t.Fatalf("stored entry did not survive reopen: ok=%v payload=%q", ok, got)
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

// TestCorruptEntriesReadAsMiss is the corruption/compat suite: every
// envelope defect, and a payload the tier's decoder refuses, reads as one
// clean miss that deletes the file — never a hit with a wrong payload —
// and the identity is immediately rewritable.
func TestCorruptEntriesReadAsMiss(t *testing.T) {
	errDecode := errors.New("decoder refuses the payload")
	for name, tc := range map[string]struct {
		corrupt func(t *testing.T, s *Store, path string)
		decode  error
	}{
		"truncated file": {corrupt: func(t *testing.T, _ *Store, path string) {
			rewrite(t, path, func(b []byte) []byte { return b[:len(b)/2] })
		}},
		"empty file": {corrupt: func(t *testing.T, _ *Store, path string) {
			rewrite(t, path, func([]byte) []byte { return nil })
		}},
		"flipped identity byte": {corrupt: func(t *testing.T, _ *Store, path string) {
			rewrite(t, path, func(b []byte) []byte { b[len(testFormat.Magic)+2+4+1] ^= 0x40; return b })
		}},
		"flipped payload byte": {corrupt: func(t *testing.T, _ *Store, path string) {
			rewrite(t, path, func(b []byte) []byte { b[len(b)-12] ^= 0x01; return b })
		}},
		"flipped checksum byte": {corrupt: func(t *testing.T, _ *Store, path string) {
			rewrite(t, path, func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b })
		}},
		"stale version": {corrupt: func(t *testing.T, s *Store, _ string) {
			// A well-formed entry (valid checksum, right identity) in an
			// older version: the version gate alone must miss it.
			old := testFormat
			old.Version--
			stale, err := Open(s.dir, 0, old)
			if err != nil {
				t.Fatal(err)
			}
			if err := stale.Put(id(0), payload(0)); err != nil {
				t.Fatal(err)
			}
		}},
		"bad magic": {corrupt: func(t *testing.T, s *Store, _ string) {
			other := testFormat
			other.Magic = "ELSE"
			o, err := Open(s.dir, 0, other)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Put(id(0), payload(0)); err != nil {
				t.Fatal(err)
			}
		}},
		"identity mismatch": {corrupt: func(t *testing.T, s *Store, path string) {
			// Another identity's entry parked under this one's file name,
			// as a colliding or misplaced write would leave it.
			put(t, s, 1)
			if err := os.Rename(filepath.Join(s.dir, s.name(id(1))), path); err != nil {
				t.Fatal(err)
			}
		}},
		"decoder error": {decode: errDecode, corrupt: func(*testing.T, *Store, string) {}},
	} {
		t.Run(name, func(t *testing.T) {
			s, path := storeWith(t)
			tc.corrupt(t, s, path)
			s = open(t, s.dir, 0)
			decoded := 0
			if s.Get(id(0), func([]byte) error { decoded++; return tc.decode }) {
				t.Fatal("defective entry served as a hit")
			}
			if decoded > 0 && tc.decode == nil {
				t.Fatal("decode called on a defective envelope")
			}
			if st := s.Stats(); st.Misses != 1 || st.Hits != 0 {
				t.Errorf("stats = %+v, want 1 miss, 0 hits", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("unusable entry not deleted (err=%v)", err)
			}
			put(t, s, 0)
			if got, ok := get(s, id(0)); !ok || string(got) != string(payload(0)) {
				t.Fatalf("rewrite did not restore the entry (ok=%v)", ok)
			}
		})
	}
}

// TestDistinctIdentitiesDistinctFiles: content addressing gives every
// identity its own file, so entries can never overwrite each other.
func TestDistinctIdentitiesDistinctFiles(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for i := 0; i < 3; i++ {
		put(t, s, i)
	}
	if names := entryNames(t, s.dir); len(names) != 3 {
		t.Fatalf("3 identities landed in %d files: %v", len(names), names)
	}
	for i := 0; i < 3; i++ {
		if got, ok := get(s, id(i)); !ok || string(got) != string(payload(i)) {
			t.Errorf("identity %d: ok=%v payload=%q", i, ok, got)
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
	if _, ok := get(s, id(0)); !ok {
		t.Fatal("entry 0 missing before overflow")
	}
	put(t, s, 3)
	st := s.Stats()
	if st.Evictions != 1 || st.Files != 3 || st.Bytes > 3*size {
		t.Fatalf("stats = %+v, want 1 eviction and 3 files within %d bytes", st, 3*size)
	}
	if _, ok := get(s, id(1)); ok {
		t.Error("least-recently-accessed entry 1 survived the eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := get(s, id(i)); !ok {
			t.Errorf("entry %d was evicted, want entry 1", i)
		}
	}
}

// TestBoundEnforcedAtOpen: a store reopened with a smaller bound sheds
// its oldest entries immediately.
func TestBoundEnforcedAtOpen(t *testing.T) {
	size := entrySize(t)
	s := open(t, t.TempDir(), 0)
	for i := 0; i < 4; i++ {
		put(t, s, i)
	}
	s2 := open(t, s.dir, 2*size)
	if st := s2.Stats(); st.Files != 2 || st.Evictions != 2 || st.Bytes > 2*size {
		t.Fatalf("stats after bounded reopen = %+v, want 2 files kept", st)
	}
}

// TestPutReplacesAtomically: overwriting an identity keeps exactly one
// file's worth of accounting and leaves no temp files behind.
func TestPutReplacesAtomically(t *testing.T) {
	s, _ := storeWith(t)
	if err := s.Put(id(0), []byte("replacement")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	want := int64(len(testFormat.Magic) + 2 + 4 + len(id(0)) + len("replacement") + 4)
	if st.Files != 1 || st.Bytes != want {
		t.Errorf("stats = %+v after overwrite, want 1 file of %d bytes", st, want)
	}
	if got, ok := get(s, id(0)); !ok || string(got) != "replacement" {
		t.Fatalf("overwrite did not replace the payload: ok=%v payload=%q", ok, got)
	}
	des, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 {
		t.Errorf("store dir holds %d files after an overwrite, want 1", len(des))
	}
}

// TestOpenSweepsStaleTempFiles: a writer killed between create and
// rename leaves a temp file; Open deletes it so kill/restart cycles
// cannot leak disk outside the byte bound.
func TestOpenSweepsStaleTempFiles(t *testing.T) {
	s, _ := storeWith(t)
	stale := filepath.Join(s.dir, tmpPrefix+"orphan")
	if err := os.WriteFile(stale, []byte("half-written entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s = open(t, s.dir, 0)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived reopen (err=%v)", err)
	}
	if _, ok := get(s, id(0)); !ok {
		t.Error("real entry lost while sweeping temp files")
	}
}

// TestExternalDeletionDropsAccounting: when a sharing process's GC
// deletes an entry, the next Get both misses and drops the stale
// accounting, so Bytes/Files cannot drift and evict cannot chase ghosts.
func TestExternalDeletionDropsAccounting(t *testing.T) {
	s, path := storeWith(t)
	os.Remove(path) // the other process's eviction
	if _, ok := get(s, id(0)); ok {
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
	if got, ok := get(b, id(0)); !ok || string(got) != string(payload(0)) {
		t.Fatal("store b did not serve store a's entry")
	}
	if st := b.Stats(); st.Files != 1 || st.Bytes != a.Stats().Bytes {
		t.Errorf("adopted entry not accounted: %+v", st)
	}
}

// TestEvictionVictimDeterministic locks the claim evict rests on: the
// victim is the entry with the unique minimum access seq, so two stores
// driven through an identical Put/Get history shed exactly the same
// entries, whatever order their accounting maps happen to iterate in.
func TestEvictionVictimDeterministic(t *testing.T) {
	size := entrySize(t)
	history := func() []string {
		s := open(t, t.TempDir(), 4*size)
		for i := 0; i < 12; i++ {
			put(t, s, i)
			// Interleaved rereads decouple recency from insertion order.
			if i%3 == 0 {
				get(s, id(i/2))
			}
		}
		if st := s.Stats(); st.Evictions == 0 {
			t.Fatalf("history produced no evictions: %+v", st)
		}
		return entryNames(t, s.dir)
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
		name := s.name(id(i))
		mtime := base.Add(time.Duration(a) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, name), mtime, mtime); err != nil {
			t.Fatal(err)
		}
		byAge[a] = name
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
	s, _ := storeWith(t)
	if err := os.RemoveAll(s.dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(id(1), payload(1)); err == nil {
		t.Fatal("Put into a non-directory succeeded")
	}
	if _, ok := get(s, id(0)); ok {
		t.Fatal("Get served a hit from a non-directory")
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Misses != 1 || st.Hits != 0 || st.Files != 0 {
		t.Errorf("stats = %+v, want 1 write error, 1 miss and no files", st)
	}
}

// TestConcurrentUse drives one bounded store from several goroutines,
// as a session's workers do: every hit must carry its own identity's
// payload, no write may fail, and the bound must hold afterwards.
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
					if err := s.Put(id(i), payload(i)); err != nil {
						t.Error(err)
					}
				} else if got, ok := get(s, id(i)); ok && string(got) != string(payload(i)) {
					t.Errorf("identity %d served another payload: %q", i, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Bytes > 4*size || st.WriteErrors != 0 || st.Hits == 0 {
		t.Errorf("stats = %+v, want hits, no write errors and at most %d bytes", st, 4*size)
	}
}
