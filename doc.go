// Package regcast reproduces "Efficient Randomised Broadcasting in Random
// Regular Networks with Applications in Peer-to-Peer Systems" (Berenbrink,
// Elsässer, Friedetzky; PODC 2008 / Distributed Computing 2016) as a Go
// library, and is itself the public API: programs describe a broadcast as
// a Scenario (topology + protocol + fault model, via functional options),
// execute it with a Runner that selects between two engines behind one
// Run(ctx, AnyScenario) call, and consume per-round metrics online through
// the streaming Observer interface — the one way they leave a run (Result
// keeps totals only).
//
//	g, _ := regcast.NewRegularGraph(1<<14, 8, regcast.NewRand(1))
//	proto, _ := regcast.NewFourChoice(1<<14, 8) // the paper's schedule
//	scenario, _ := regcast.NewScenario(regcast.Static(g), proto,
//		regcast.WithSeed(42),
//		regcast.WithObserver(regcast.ObserverFuncs{
//			Round: func(rs regcast.RoundStats) { fmt.Println(rs.Round, rs.Informed) },
//		}))
//	res, _ := regcast.Run(ctx, scenario, regcast.WithWorkers(regcast.WorkersAuto))
//
// Engines: EngineSimulator (the round simulator; WithWorkers runs its
// shard passes inline or on a worker pool, with bit-identical results for
// every worker count at a fixed shard count) and EngineDaemonTransport
// (the scenario's protocol, tick by tick, over persistent loopback TCP
// connections, with a health ledger and seeded fault injection;
// internal/transport).
// Scenario construction fails fast on model violations — e.g.
// DialQuasirandom with a protocol that may pull.
//
// Topologies come in two forms: a concrete instance (NewScenario) or a
// declarative TopologySpec (NewScenarioSpec; topology_spec.go) that
// builds the network at run time — RegularGraphSpec,
// ConfigurationModelSpec, GnpSpec, HypercubeSpec, TorusSpec, and
// OverlaySpec, the paper's churning p2p overlay. Spec scenarios build a
// fresh topology per Batch replication, so dynamic topologies replicate
// like static graphs, and overlay topologies keep the
// engines' zero-interface CSR fast path even under churn via
// epoch-stamped CSR views (see DESIGN.md).
//
// Above the engines sits the batch layer (batch.go): Batch runs R
// seed-derived replications of a scenario of either kind on a worker
// pool of whole runs and aggregates them online (Replicate is the same
// pool for non-Scenario ensembles). Replication streams are precomputed
// in replication order and results folded in replication order, so batch
// aggregates are bit-identical for every ReplicationWorkers value;
// replication-level parallelism composes with WithWorkers' per-run
// workers.
//
// Besides the phone-call rounds above, the facade ships the
// population-protocol model, where time advances one uniformly random
// pairwise interaction at a time (internal/population): describe an
// ensemble of agents as a PopulationScenario (a PairProtocol such as
// NewLeaderElection, or a RingProtocol such as NewHermanRing) and execute
// it with the same Run (Result.Population carries the population-specific
// fields); Batch folds convergence ensembles into the same BatchResult the
// broadcast batches produce. The scenario's type tells the two families
// apart: a Scenario runs in rounds, a PopulationScenario in interactions.
// Both families run on the shared deterministic sharded
// super-step contract (internal/sched) — fixed shard count, per-shard
// split PRNG streams, shard-order merge — so traces are bit-identical
// for every worker count.
//
// The population engine has one super-step per scheduler and compiles
// what a protocol declares into the apply arm it runs, with the same
// trace bit for bit: protocols declaring a small state space
// (TablePairProtocol, RingTableProtocol) have their transition function
// compiled into a dense lookup table, whose loop also keeps an occupancy
// vector that a CountsPairProtocol (e.g. NewApproxMajority) measures in
// place of the O(n) scan; wide protocols can supply a fused batch kernel
// (BatchPairProtocol); anything else takes one interface call per pair.
// Pair draws always go through the batched block sampler into
// preallocated PairDraw buffers.
//
// Behind the facade: the four-choice phased broadcast protocols
// (internal/core), the random phone call simulator with its one sharded
// round driver (internal/phonecall), random-regular-graph
// generation and analysis (internal/graph, internal/spectral), the
// strictly oblivious baseline schedules, push/pull/push&pull and the
// lower-bound shapes alike (internal/baseline), a churning P2P overlay and a
// replicated database built on broadcast (internal/p2p), and the
// per-theorem experiment harness (internal/experiments) — every one of
// its replication ensembles routes through the batch layer, and its
// registry is re-exported by the public regcast/experiments package
// (the harness consumes this facade, so the root package cannot
// re-export it without a cycle).
//
// See README.md for a guided tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results. The
// benchmarks in bench_test.go regenerate one experiment each and guard
// the nil-observer fast path at zero allocations per round.
package regcast
