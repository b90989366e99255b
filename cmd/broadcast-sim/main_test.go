package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// output runs the command with args and returns what it printed.
func output(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	return <-printed, runErr
}

// TestTopologyDegreePicksVariant: with -topology the four-choice variant
// follows the topology's degree, not -d's default of 8. The 12-cube and
// a 16-regular stream are both past the variant threshold.
func TestTopologyDegreePicksVariant(t *testing.T) {
	for _, spec := range []string{"hypercube:dim=12", "regular-stream:n=4096,d=16"} {
		out, err := output(t, "-topology", spec, "-protocol", "fourchoice")
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !strings.Contains(out, "protocol: 4-choice/algorithm2(") {
			t.Errorf("%s: want algorithm2, got\n%s", spec, out)
		}
	}
}

// TestTopologyRejectsNodeCountAndDegree: a spec sets both, so an explicit
// -n or -d beside it is refused by name rather than ignored.
func TestTopologyRejectsNodeCountAndDegree(t *testing.T) {
	for _, extra := range []string{"-n", "-d"} {
		err := run([]string{"-topology", "hypercube:dim=12", extra, "12"})
		if err == nil || !strings.HasPrefix(err.Error(), extra+":") {
			t.Errorf("%s: err = %v, want it named", extra, err)
		}
	}
}

// TestRejectsSchedulerFlag: the command runs broadcasts only; -scheduler
// is cmd/experiments' flag.
func TestRejectsSchedulerFlag(t *testing.T) {
	err := run([]string{"-scheduler", "interactions"})
	if err == nil || !strings.Contains(err.Error(), "-scheduler") {
		t.Fatalf("-scheduler: err = %v, want it named", err)
	}
}

// TestRejectsIgnoredFlags: a flag the chosen run would not read is refused
// by name — fault-plan flags without -chaos, -mailbox without the daemon,
// -phases on the daemon (it times no round phases), -alpha and -choices
// with a baseline protocol — while the same flags run where they are read.
func TestRejectsIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		refused []string // empty: the run must succeed
	}{
		{[]string{"-chaos-drop", "0.5"}, []string{"-chaos-drop"}},
		{[]string{"-daemon", "-chaos-partition", "1:3"}, []string{"-chaos-partition"}},
		{[]string{"-chaos-drop", "0.9", "-chaos-partition", "1:3", "-mailbox", "5"}, []string{"-chaos-drop", "-chaos-partition", "-mailbox"}},
		{[]string{"-chaos-seed", "3", "-chaos-dup", "0.1", "-chaos-delay-prob", "0.1", "-chaos-delay", "1ms", "-chaos-crash", "5:1:3"},
			[]string{"-chaos-seed", "-chaos-dup", "-chaos-delay-prob", "-chaos-delay", "-chaos-crash"}},
		{[]string{"-mailbox", "5"}, []string{"-mailbox"}},
		{[]string{"-daemon", "-phases"}, []string{"-phases"}},
		{[]string{"-chaos", "-phases"}, []string{"-phases"}},
		{[]string{"-protocol", "push", "-choices", "3", "-alpha", "9"}, []string{"-alpha", "-choices"}},
		{[]string{"-protocol", "pull", "-alpha", "3"}, []string{"-alpha"}},
		{[]string{"-protocol", "pushpull", "-choices", "2"}, []string{"-choices"}},
		{[]string{"-chaos", "-chaos-drop", "0.2", "-chaos-partition", "1:3", "-chaos-crash", "5:1:3", "-protocol", "pushpull"}, nil},
		{[]string{"-daemon", "-mailbox", "5"}, nil},
		{[]string{"-chaos", "-mailbox", "5"}, nil},
		{[]string{"-phases"}, nil},
		{[]string{"-protocol", "algorithm1", "-choices", "3", "-alpha", "3"}, nil},
	} {
		args := append([]string{"-n", "32", "-d", "6"}, tc.args...)
		_, err := output(t, args...)
		if len(tc.refused) == 0 {
			if err != nil {
				t.Errorf("%v: %v", tc.args, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%v: accepted, want %v refused", tc.args, tc.refused)
			continue
		}
		for _, name := range tc.refused {
			if !strings.Contains(err.Error(), name+":") {
				t.Errorf("%v: err = %v, want %s named", tc.args, err, name)
			}
		}
	}
}

// TestReadmeDaemonQuickstart: every command of README's "Daemon
// quickstart" block prints the lines the block shows for it. A "..." line
// stands for omitted lines; a line ending in "..." must begin a printed
// line.
func TestReadmeDaemonQuickstart(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### Daemon quickstart")
	if !ok {
		t.Fatal("README has no Daemon quickstart section")
	}
	_, block, ok := strings.Cut(section, "```console\n")
	if block, _, ok = strings.Cut(block, "```"); !ok {
		t.Fatal("Daemon quickstart has no console block")
	}
	const prompt = "$ go run ./cmd/broadcast-sim"
	type example struct {
		args []string
		want []string
	}
	var examples []*example
	lines := strings.Split(strings.TrimSuffix(block, "\n"), "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if cmd, ok := strings.CutPrefix(line, prompt); ok {
			for strings.HasSuffix(cmd, "\\") && i+1 < len(lines) {
				i++
				cmd = strings.TrimSuffix(cmd, "\\") + lines[i]
			}
			examples = append(examples, &example{args: strings.Fields(cmd)})
			continue
		}
		if len(examples) == 0 {
			t.Fatalf("output line %q before any command", line)
		}
		if line != "..." {
			ex := examples[len(examples)-1]
			ex.want = append(ex.want, line)
		}
	}
	if len(examples) != 2 {
		t.Fatalf("found %d commands in the block, want 2", len(examples))
	}
	for _, ex := range examples {
		out, err := output(t, ex.args...)
		if err != nil {
			t.Fatalf("%v: %v", ex.args, err)
		}
		printed := strings.Split(out, "\n")
		for _, want := range ex.want {
			prefix, cut := strings.CutSuffix(want, "...")
			if !slices.ContainsFunc(printed, func(got string) bool {
				return got == want || cut && strings.HasPrefix(got, prefix)
			}) {
				t.Errorf("%v: README line %q not printed; output:\n%s", ex.args, want, out)
			}
		}
	}
}

// TestPerNodeFiguresDivideByAlivePeers: an overlay's id space carries empty
// headroom slots (2,048 ids for these 1,024 peers), so the per-node cost
// and the informed-fraction chart divide by the alive peers, as Batch's
// TxPerNode does: a completed broadcast charts 1, not 0.5.
func TestPerNodeFiguresDivideByAlivePeers(t *testing.T) {
	out, err := output(t, "-topology", "overlay:n=1024,d=8", "-protocol", "push", "-trace", "-seed", "1")
	if err != nil {
		t.Fatal(err)
	}
	var informed, alive int
	var tx int64
	var perNode float64
	top := ""
	for _, line := range strings.Split(out, "\n") {
		if label, _, ok := strings.Cut(line, " |"); ok && top == "" {
			top = strings.TrimSpace(label)
		}
		if strings.HasPrefix(line, "completed:") {
			if _, err := fmt.Sscanf(line, "completed: true (informed %d/%d)", &informed, &alive); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		}
		if strings.HasPrefix(line, "transmissions:") {
			if _, err := fmt.Sscanf(line, "transmissions: %d (%f per node)", &tx, &perNode); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		}
	}
	if informed != 1024 || alive != 1024 {
		t.Fatalf("informed %d/%d, want a completed broadcast over 1024 peers:\n%s", informed, alive, out)
	}
	if want := float64(tx) / float64(alive); math.Abs(perNode-want) > 0.005 {
		t.Errorf("%d transmissions printed as %.2f per node, want %.2f (per alive peer)", tx, perNode, want)
	}
	if top != "1" {
		t.Errorf("informed-fraction chart tops out at %q, want 1:\n%s", top, out)
	}
}
