//go:build race

package phonecall_test

// raceEnabled: see race_off_test.go.
const raceEnabled = true
