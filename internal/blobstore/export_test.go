package blobstore

import (
	"os"
	"testing"
)

// FailWrites makes every store write the first half of its temp file and
// then fail with err, the way a write runs out of space part-way, until
// the test ends. Tests that call it must not run in parallel.
func FailWrites(t testing.TB, err error) {
	t.Helper()
	orig := writeTemp
	writeTemp = func(f *os.File, data []byte) error {
		if _, werr := f.Write(data[:len(data)/2]); werr != nil {
			return werr
		}
		return err
	}
	t.Cleanup(func() { writeTemp = orig })
}
