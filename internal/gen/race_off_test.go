//go:build !race

package gen

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
