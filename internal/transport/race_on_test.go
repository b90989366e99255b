//go:build race

package transport

// raceEnabled: see race_off_test.go.
const raceEnabled = true
