package main

import (
	"strings"
	"testing"
)

// TestInteractionsRejectsIgnoredFlags: the -scheduler interactions path
// runs leader election from -n, -trace, -seed and -workers alone, so every
// other flag it is given is refused by name rather than ignored, and the
// flags it reads still run.
func TestInteractionsRejectsIgnoredFlags(t *testing.T) {
	for _, extra := range [][]string{
		{"-daemon"},
		{"-chaos"},
		{"-chaos-drop", "0.1"},
		{"-chaos-dup", "0.1"},
		{"-chaos-reorder", "0.1"},
		{"-chaos-delay-prob", "0.1"},
		{"-chaos-delay", "1ms"},
		{"-chaos-seed", "3"},
		{"-chaos-partition", "1:3"},
		{"-chaos-crash", "5:1:3"},
		{"-phases"},
		{"-protocol", "push"},
		{"-d", "6"},
		{"-mem"},
		{"-topology", "hypercube:dim=6"},
	} {
		args := append([]string{"-scheduler", "interactions", "-n", "64"}, extra...)
		err := run(args)
		if err == nil || !strings.HasPrefix(err.Error(), extra[0]+":") {
			t.Errorf("%v: err = %v, want it to name %s", args, err, extra[0])
		}
	}
	if err := run([]string{"-scheduler", "interactions", "-n", "64", "-seed", "3", "-workers", "1"}); err != nil {
		t.Fatalf("the flags the population path reads: %v", err)
	}
}
