//go:build race

package resultstore

// raceEnabled reports a -race build, under which sync.Pool drops
// buffers at random and allocation counts are not the program's.
const raceEnabled = true
