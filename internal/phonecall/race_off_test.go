//go:build !race

package phonecall_test

// raceEnabled reports whether the race detector instruments this build
// (race_on_test.go carries the true case): allocation budgets skip under
// it, instrumentation inflates every allocation.
const raceEnabled = false
