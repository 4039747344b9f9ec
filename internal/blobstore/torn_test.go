package blobstore_test

import (
	"os"
	"testing"

	"repro/internal/core"
)

// TestTornEntryAtEveryOffset simulates a crash that leaves entry[:k]
// under a real result entry's name, for every k in [0, len(entry)):
// each Get must miss and delete the file, never serve a hit.
func TestTornEntryAtEveryOffset(t *testing.T) {
	t.Run("result", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir, 0)
		res := &core.Result{Workload: "w", Policy: core.PolicyKind("RaT"), Cycles: 12345,
			Threads: []core.ThreadResult{{Benchmark: "art", IPC: 0.75}, {Benchmark: "mcf", IPC: 0.25}}}
		if err := s.Put("w", cfg(0), res); err != nil {
			t.Fatal(err)
		}
		path := entryPath(dir, 0)
		entry, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get("w", cfg(0)); !ok {
			t.Fatal("the intact entry did not decode")
		}
		for k := 0; k < len(entry); k++ {
			if err := os.WriteFile(path, entry[:k], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get("w", cfg(0)); ok {
				t.Fatalf("entry torn at %d of %d bytes served as a hit", k, len(entry))
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("entry torn at %d bytes not deleted (err=%v)", k, err)
			}
		}
		if st := s.Stats(); st.Misses != uint64(len(entry)) || st.Hits != 1 {
			t.Errorf("stats = %+v, want %d misses and 1 hit", st, len(entry))
		}
	})
}
