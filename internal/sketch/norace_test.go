//go:build !race

package sketch

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false
