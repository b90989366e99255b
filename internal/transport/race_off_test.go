//go:build !race

package transport

// raceEnabled reports whether the race detector instruments this build
// (race_on_test.go carries the true case): allocation counts are skipped
// under it, since instrumentation allocates.
const raceEnabled = false
