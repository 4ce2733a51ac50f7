//go:build race

package gen

// raceEnabled reports whether the race detector is compiled in; its
// runtime allocates on its own, so allocation bounds leave it room.
const raceEnabled = true
