//go:build !race

package resultstore

const raceEnabled = false
