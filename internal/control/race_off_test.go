//go:build !race

package control

// raceEnabled reports whether the race detector is on. Alloc-count pins are
// skipped under -race, where the instrumented runtime's allocation counts
// are not the program's.
const raceEnabled = false
