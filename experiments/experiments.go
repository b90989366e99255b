// Package experiments is the public face of the paper-reproduction
// experiment harness: every theorem, phase-level lemma and cited
// comparison of the source paper has a registered Experiment whose Run
// method regenerates its EXPERIMENTS.md tables.
//
// It lives beside the regcast facade rather than inside it because the
// harness itself is a facade *consumer*: since the batch-replication
// redesign, internal/experiments drives every replication ensemble
// through regcast.Batch and regcast.Replicate, so the root package cannot
// also re-export the registry without an import cycle. Programs that only
// run broadcasts never need this package; cmd/experiments, which
// regenerates the paper tables, imports it alongside regcast.
package experiments

import (
	"regcast"

	"regcast/internal/experiments"
)

// Experiment is one registered, reproducible measurement; its Run method
// regenerates the corresponding EXPERIMENTS.md tables.
type Experiment = experiments.Experiment

// Options selects the experiment profile: the master seed, the
// Quick/Full sweep sizes, the per-run engine (Workers, phonecall
// semantics) and the replication-pool width (ReplicationWorkers, batch
// semantics).
type Options = experiments.Options

// All returns every registered experiment ordered by numeric ID.
func All() []Experiment { return experiments.All() }

// ByID looks an experiment up by its DESIGN.md identifier ("E1", ...).
func ByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// FromFlags builds harness options from the shared command-line flags,
// keeping every command's engine selection on the facade's single
// definition. replicationWorkers follows Batch.ReplicationWorkers
// semantics (0/1 serial, regcast.WorkersAuto = GOMAXPROCS, n > 1 fixed).
func FromFlags(f *regcast.CommonFlags, quick bool, replicationWorkers int) Options {
	return Options{
		Seed:               f.Seed,
		Quick:              quick,
		Workers:            f.Workers,
		ReplicationWorkers: replicationWorkers,
	}
}
