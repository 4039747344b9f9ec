package blobstore_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/resultstore"
)

// soleEntry returns the path and contents of the one file in dir.
func soleEntry(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 {
		t.Fatalf("%d files in %s, want 1", len(des), dir)
	}
	path := filepath.Join(dir, des[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// checkTorn simulates a crash that leaves entry[:k] under the entry's
// name, for every k in [0, len(entry)): each Get must miss, delete the
// file and never hand decode a payload. The format and identity come
// from the entry's own envelope, so the real tier entry is the subject.
func checkTorn(t *testing.T, path string, entry []byte) {
	t.Helper()
	magic := string(entry[:4])
	f := blobstore.Format{Magic: magic, Version: binary.LittleEndian.Uint16(entry[4:]), Suffix: filepath.Ext(path)}
	idLen := int(binary.LittleEndian.Uint32(entry[6:]))
	identity := entry[10 : 10+idLen]

	s, err := blobstore.Open(filepath.Dir(path), 0, f)
	if err != nil {
		t.Fatal(err)
	}
	decoded := 0
	decode := func([]byte) error { decoded++; return nil }
	if !s.Get(identity, decode) || decoded != 1 {
		t.Fatalf("the intact %s entry did not decode (decoded=%d)", magic, decoded)
	}
	for k := 0; k < len(entry); k++ {
		if err := os.WriteFile(path, entry[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		if s.Get(identity, decode) {
			t.Fatalf("%s entry torn at %d of %d bytes served as a hit", magic, k, len(entry))
		}
		if decoded != 1 {
			t.Fatalf("%s entry torn at %d of %d bytes reached decode", magic, k, len(entry))
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s entry torn at %d bytes not deleted (err=%v)", magic, k, err)
		}
	}
	if st := s.Stats(); st.Misses != uint64(len(entry)) || st.Hits != 1 {
		t.Errorf("stats = %+v, want %d misses and 1 hit", st, len(entry))
	}
}

// TestTornEntryAtEveryOffset runs the torn-write fault over one real
// result entry.
func TestTornEntryAtEveryOffset(t *testing.T) {
	t.Run("result", func(t *testing.T) {
		dir := t.TempDir()
		rs, err := resultstore.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := &core.Result{Workload: "art+mcf", Policy: core.PolicyKind("RaT"), Cycles: 12345,
			Threads: []core.ThreadResult{{Benchmark: "art", IPC: 0.75}, {Benchmark: "mcf", IPC: 0.25}}}
		if err := rs.Put(res.Workload, core.DefaultConfig(), res); err != nil {
			t.Fatal(err)
		}
		path, entry := soleEntry(t, dir)
		checkTorn(t, path, entry)
	})
}
