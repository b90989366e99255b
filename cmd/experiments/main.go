// Command experiments regenerates the paper-reproduction tables recorded
// in EXPERIMENTS.md.
//
// Usage:
//
//	experiments                  # run everything, full profile, plain text
//	experiments -run E2,E4       # a subset
//	experiments -quick           # the fast CI profile
//	experiments -markdown        # GitHub-flavoured Markdown output
//	experiments -workers -1      # each run's shard passes on a GOMAXPROCS pool
//	experiments -rep-workers -1  # replication ensembles on a GOMAXPROCS pool
//	experiments -scheduler interactions  # the population-protocol family (E21+)
//
// -workers parallelises inside one run (sharding), -rep-workers across
// whole runs (the batch layer); the two compose, and neither changes any
// table — results are a pure function of -seed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"regcast"
	"regcast/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses args and writes the selected experiments' tables to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		runIDs   = fs.String("run", "", "comma-separated experiment ids (default: all)")
		quick    = fs.Bool("quick", false, "use the fast profile (smaller sweeps)")
		markdown = fs.Bool("markdown", false, "emit Markdown instead of plain text")
		repWork  = fs.Int("rep-workers", 0,
			"replication-pool workers over whole runs: 0/1 = serial, -1 = GOMAXPROCS, n = n workers (never changes results)")
		scheduler = fs.String("scheduler", "rounds",
			"default selection: rounds = the phone-call experiments (E1–E20), interactions = the population-protocol experiments (E21+)")
		common = regcast.AddCommonFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := common.Validate(); err != nil {
		return err
	}
	selected, err := selection(*runIDs, *scheduler)
	if err != nil {
		return err
	}
	if common.Phases {
		return errors.New("-phases: the tables report no phase times (broadcast-sim, graphgen and overlay-sim print them)")
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles()
	if *repWork < regcast.WorkersAuto {
		return fmt.Errorf("-rep-workers %d invalid (use -1, 0 or a positive count)", *repWork)
	}

	opts := experiments.Options{
		Seed:               common.Seed,
		Quick:              *quick,
		Workers:            common.Workers,
		ReplicationWorkers: *repWork,
	}
	for _, e := range selected {
		if *markdown {
			fmt.Fprintf(w, "## %s — %s\n\n", e.ID, e.Title)
			fmt.Fprintf(w, "**Paper claim.** %s\n\n", e.PaperClaim)
		} else {
			fmt.Fprintf(w, "=== %s — %s ===\n", e.ID, e.Title)
			fmt.Fprintf(w, "paper claim: %s\n\n", e.PaperClaim)
		}
		tables, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, tb := range tables {
			if *markdown {
				fmt.Fprintln(w, tb.Markdown())
			} else {
				fmt.Fprintln(w, tb.String())
			}
		}
	}
	return nil
}

// selection returns the experiments -run names, in its order, or without
// -run the family -scheduler names: rounds is E1–E20 (the paper's
// theorems), interactions E21+ (the population-protocol experiments).
func selection(runIDs, scheduler string) ([]experiments.Experiment, error) {
	if scheduler != "rounds" && scheduler != "interactions" {
		return nil, fmt.Errorf("-scheduler %q invalid (use rounds or interactions)", scheduler)
	}
	var selected []experiments.Experiment
	if runIDs == "" {
		for _, e := range experiments.All() {
			if e.Population == (scheduler == "interactions") {
				selected = append(selected, e)
			}
		}
		return selected, nil
	}
	for _, id := range strings.Split(runIDs, ",") {
		id = strings.TrimSpace(id)
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		selected = append(selected, e)
	}
	return selected, nil
}
