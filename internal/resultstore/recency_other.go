//go:build !linux

package resultstore

import (
	"os"
	"time"
)

// bumpRecency sets the entry's access and modification times to now by
// path (os.Chtimes); package syscall offers no descriptor form here, so
// the open descriptor fd is unused. Best-effort: an error leaves the old
// times, which only makes the entry look older.
func bumpRecency(fd any, path string) {
	now := time.Now()
	os.Chtimes(path, now, now)
}
