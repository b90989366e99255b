package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/p2p/overlay"
	"regcast/internal/phonecall"
	"regcast/internal/population"
	"regcast/internal/xrand"
)

// workload is one scenario the benchmark repeats. A sample assembles the
// scenario from the sample's stream (setup) and runs it through the
// public facade (run); the traced run additionally replays it through the
// layers' own exported functions.
type workload struct {
	name string
	why  string
	n    int // node or agent count, for the report header
	// statSamples is how many samples every run takes regardless of the
	// time budget; the simulated statistics average over exactly these,
	// so they are a function of the seed alone.
	statSamples int
	// workers is the engine worker count of every Runner the workload
	// builds (regcast.WithWorkers) and repWorkers the Batch's
	// ReplicationWorkers. Gated runs are refused unless both are 0 or 1.
	workers    int
	repWorkers int
	// population marks the interaction-scheduler workload, whose replay
	// reports under population.* instead of phonecall.*.
	population bool
	// ensemble marks a Batch workload, which has a replication pool to probe.
	ensemble bool
	assemble func(w *workload, rng *xrand.Rand, tr *tracer) (*job, error)
}

// job is one assembled sample.
type job struct {
	// run is the timed facade call.
	run func(ctx context.Context) error
	// check runs after the clock stopped: the output checks, and the
	// reduction of the result to what the metrics need.
	check func() (outcome, error)
	// replay repeats the run through the layer API, one span per call.
	replay func(tr *tracer, v variant) (layerRun, error)
	// built is the time run spent inside TopologySpec.Build, which belongs
	// to setup although the facade calls it.
	built *atomic.Int64
}

// outcome is one sample's result, reduced.
type outcome struct {
	events    int64   // mandated channel dials, or population interactions
	rounds    float64 // round the last peer was informed in (ensemble mean), or super-steps executed
	txPerNode float64
	informed  int64 // coverage numerator
	alive     int64 // coverage denominator
	// key is (rounds executed, transmissions): what a re-run on the same
	// stream must reproduce exactly.
	key [2]int64
}

// variant selects the engine path of a replay.
type variant struct {
	reference bool // DisableFastPath
	workers   int  // 0: as the workload's facade run
	repPool   int  // churn only: re-run the facade Batch with this many ReplicationWorkers
}

// orAs fills the worker count v leaves open with the workload's own.
func (v variant) orAs(w *workload) variant {
	if v.workers == 0 {
		v.workers = w.workers
	}
	return v
}

// layerRun is what one replay measured.
type layerRun struct {
	newEngine time.Duration
	run       time.Duration
	batch     time.Duration // variant.repPool only: the facade Batch wall
	runAlloc  uint64
	rounds    int64
	events    int64
	tx        int64
	measure   int64
}

// timed runs fn inside a span and returns how long it took.
func timed(tr *tracer, name string, fn func()) time.Duration {
	id := tr.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(id)
	return d
}

// timedSpec forwards to a TopologySpec and accounts the time its Build
// takes, so a topology the facade builds inside Run is still attributed
// to setup. onBuild, when set, sees every topology built.
type timedSpec struct {
	regcast.TopologySpec
	tr      *tracer
	span    string
	spent   *atomic.Int64
	onBuild func(rep int, topo regcast.Topology)
}

func (s timedSpec) Build(rep int, rng *regcast.Rand) (topo regcast.Topology, err error) {
	d := timed(s.tr, s.span, func() { topo, err = s.TopologySpec.Build(rep, rng) })
	s.spent.Add(int64(d))
	if err == nil && s.onBuild != nil {
		s.onBuild(rep, topo)
	}
	return topo, err
}

func (s timedSpec) NodeCount() int { return regcast.SpecNodeCount(s.TopologySpec) }

func allWorkloads(quick bool) []workload {
	if quick {
		return []workload{
			denseFourChoice(2048, 16, 2),
			streamPush(2048, 16, 2),
			churnEnsemble(512, 8, 4, 2),
			populationLeader(2048, 60, 2),
		}
	}
	return []workload{
		denseFourChoice(131072, 16, 16),
		streamPush(131072, 16, 64),
		churnEnsemble(16384, 8, 8, 48),
		populationLeader(262144, 60, 48),
	}
}

// checkBroadcast applies the output checks of one broadcast on a static
// topology, where dials is the exact dial budget of the schedule.
func checkBroadcast(res regcast.Result, dials int64) error {
	if !res.AllInformed || res.Informed != res.AliveNodes {
		return fmt.Errorf("informed %d of %d alive nodes", res.Informed, res.AliveNodes)
	}
	if res.ChannelsDialed != dials {
		return fmt.Errorf("dialled %d channels, the schedule mandates %d", res.ChannelsDialed, dials)
	}
	return nil
}

func broadcastOutcome(res regcast.Result) outcome {
	return outcome{
		events:    res.ChannelsDialed,
		rounds:    float64(res.FirstAllInformed),
		txPerNode: float64(res.Transmissions) / float64(res.AliveNodes),
		informed:  int64(res.Informed),
		alive:     int64(res.AliveNodes),
		key:       [2]int64{int64(res.Rounds), res.Transmissions},
	}
}

// replayBroadcast runs one engine per stream through phonecall's own API:
// Build (unspanned: the traced sample already accounted it), NewEngine and
// Engine.Run. It mirrors what Runner.Run and Batch do with the same
// streams, so the counts match the facade run's.
func replayBroadcast(tr *tracer, spec regcast.TopologySpec, proto regcast.Protocol, rngs []*xrand.Rand, randomSource bool, v variant) (layerRun, error) {
	var lr layerRun
	for rep, rng := range rngs {
		topo, err := spec.Build(rep, rng)
		if err != nil {
			return lr, err
		}
		source := 0
		if randomSource {
			// Batch.RandomizeSource: uniform over the alive nodes.
			for source = rng.IntN(topo.NumNodes()); !topo.Alive(source); {
				source = rng.IntN(topo.NumNodes())
			}
		}
		var e *phonecall.Engine
		lr.newEngine += timed(tr, "phonecall.newengine", func() {
			e, err = phonecall.NewEngine(phonecall.Config{
				Topology:        topo,
				Protocol:        proto,
				Source:          source,
				RNG:             rng,
				Workers:         v.workers,
				DisableFastPath: v.reference,
			})
		})
		if err != nil {
			return lr, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var res phonecall.Result
		lr.run += timed(tr, "phonecall.run", func() { res = e.Run() })
		runtime.ReadMemStats(&after)
		lr.runAlloc += after.TotalAlloc - before.TotalAlloc
		lr.rounds += int64(res.Rounds)
		lr.events += res.ChannelsDialed
		lr.tx += res.Transmissions
	}
	return lr, nil
}

// denseFourChoice is what `broadcast-sim -n N -d D` does: generate the
// random regular graph, print its structural report, run four-choice on
// the default sequential engine (CSR fast path).
func denseFourChoice(n, d, statSamples int) workload {
	return workload{
		name:        "dense-fourchoice",
		why:         "materialised random regular graph: generation and the IsSimple/IsConnected report are ~85% of the wall, the engine reads an adjacency past L2",
		n:           n,
		statSamples: statSamples,
		assemble: func(w *workload, rng *xrand.Rand, tr *tracer) (*job, error) {
			var g *regcast.Graph
			var err error
			timed(tr, "graph.gen", func() { g, err = regcast.NewRegularGraph(n, d, rng.Split()) })
			if err != nil {
				return nil, err
			}
			var simple, connected bool
			timed(tr, "graph.validate", func() { simple, connected = g.IsSimple(), g.IsConnected() })
			proto, err := regcast.NewFourChoice(n, d)
			if err != nil {
				return nil, err
			}
			seed := rng.Uint64()
			topo := regcast.Static(g)
			sc, err := regcast.NewScenario(topo, proto, regcast.WithSeed(seed))
			if err != nil {
				return nil, err
			}
			var res regcast.Result
			return &job{
				run: func(ctx context.Context) error {
					res, err = regcast.NewRunner(regcast.WithWorkers(w.workers)).Run(ctx, sc)
					return err
				},
				check: func() (outcome, error) {
					if !simple || !connected || !g.IsRegular(d) {
						return outcome{}, fmt.Errorf("graph simple=%v connected=%v %d-regular=%v", simple, connected, d, g.IsRegular(d))
					}
					return broadcastOutcome(res), checkBroadcast(res, int64(proto.Choices())*int64(n)*int64(proto.Horizon()))
				},
				replay: func(tr *tracer, v variant) (layerRun, error) {
					return replayBroadcast(tr, regcast.FixedTopology(topo), proto, []*xrand.Rand{xrand.New(seed)}, false, v.orAs(w))
				},
				built: new(atomic.Int64),
			}, nil
		},
	}
}

// streamPush is `broadcast-sim -topology regular-stream:n=N,d=D -protocol
// push -workers 1`: no adjacency exists, every dial is Feistel arithmetic.
func streamPush(n, d, statSamples int) workload {
	return workload{
		name:        "stream-push",
		why:         "implicit regular-stream topology under push: no graph is generated, every dial is NeighborAt arithmetic plus one IntN draw on the sharded driver",
		n:           n,
		statSamples: statSamples,
		workers:     1,
		assemble: func(w *workload, rng *xrand.Rand, tr *tracer) (*job, error) {
			spec, err := regcast.ParseTopologySpec(fmt.Sprintf("regular-stream:n=%d,d=%d", n, d))
			if err != nil {
				return nil, err
			}
			proto, err := baseline.NewPush(n, 1)
			if err != nil {
				return nil, err
			}
			seed := rng.Uint64()
			sc, err := regcast.NewScenarioSpec(spec, proto, regcast.WithSeed(seed))
			if err != nil {
				return nil, err
			}
			var res regcast.Result
			return &job{
				run: func(ctx context.Context) error {
					res, err = regcast.NewRunner(regcast.WithWorkers(w.workers)).Run(ctx, sc)
					return err
				},
				check: func() (outcome, error) {
					return broadcastOutcome(res), checkBroadcast(res, int64(proto.Choices())*int64(n)*int64(proto.Horizon()))
				},
				replay: func(tr *tracer, v variant) (layerRun, error) {
					return replayBroadcast(tr, spec, proto, []*xrand.Rand{xrand.New(seed)}, false, v.orAs(w))
				},
				built: new(atomic.Int64),
			}, nil
		},
	}
}

// churnedOverlay is one replication's overlay as the facade built it,
// with the ids that joined during the run. A peer that joins after the
// schedule's last pull round cannot be reached by design (EXPERIMENTS.md
// E13b), so the output check covers the peers present from the start.
type churnedOverlay struct {
	topo   regcast.Topology
	joined []bool
}

// churnEnsemble is the paper's peer-to-peer setting: a Batch of
// four-choice broadcasts, each on its own freshly built overlay that
// joins, leaves and rewires between rounds.
func churnEnsemble(n, d, reps, statSamples int) workload {
	return workload{
		name:        "churn-ensemble",
		why:         "replicated four-choice on churning overlays: topology writes beside engine reads, eight small engines per sample, batch aggregation; working set fits L2",
		n:           n,
		statSamples: statSamples,
		repWorkers:  1,
		ensemble:    true,
		assemble: func(w *workload, rng *xrand.Rand, tr *tracer) (*job, error) {
			spec := regcast.OverlaySpec{N: n, D: d, JoinProb: 0.01, LeaveProb: 0.01, MixSteps: 5}
			proto, err := regcast.NewFourChoice(n, d)
			if err != nil {
				return nil, err
			}
			seed := rng.Uint64()
			built := new(atomic.Int64)
			batch := func(tr *tracer, repPool int, onBuild func(int, regcast.Topology)) (regcast.Batch, error) {
				sc, err := regcast.NewScenarioSpec(timedSpec{spec, tr, "overlay.new", built, onBuild}, proto, regcast.WithSeed(seed))
				return regcast.Batch{
					Scenario:           sc,
					Replications:       reps,
					ReplicationWorkers: repPool,
					Runner:             regcast.NewRunner(regcast.WithWorkers(w.workers)),
					RandomizeSource:    true,
					KeepResults:        true,
				}, err
			}
			overlays := make([]churnedOverlay, reps)
			b, err := batch(tr, w.repWorkers, func(rep int, topo regcast.Topology) {
				ov := churnedOverlay{topo, make([]bool, topo.NumNodes())}
				topo.(interface{ OnMembership(overlay.MembershipFunc) }).OnMembership(func(id int, joined bool) {
					if joined {
						ov.joined[id] = true
					}
				})
				overlays[rep] = ov
			})
			if err != nil {
				return nil, err
			}
			var br regcast.BatchResult
			return &job{
				run: func(ctx context.Context) error {
					br, err = b.Run(ctx)
					return err
				},
				check: func() (outcome, error) {
					// Joins keep FirstAllInformed at -1; the completion round
					// of a replication is the receipt round of the last
					// covered peer, which is the same thing without churn.
					out := outcome{txPerNode: br.TxPerNode.Mean}
					for rep, res := range br.Results {
						out.events += res.ChannelsDialed
						out.key[0] += int64(res.Rounds)
						out.key[1] += res.Transmissions
						ov := overlays[rep]
						last := int32(0)
						for v, at := range res.InformedAt {
							if ov.topo.Alive(v) && !ov.joined[v] {
								out.alive++
								if at != regcast.Uninformed {
									out.informed++
									last = max(last, at)
								}
							}
						}
						out.rounds += float64(last) / float64(reps)
					}
					if out.informed != out.alive {
						return out, fmt.Errorf("informed %d of the %d peers present from start to end", out.informed, out.alive)
					}
					return out, nil
				},
				replay: func(tr *tracer, v variant) (layerRun, error) {
					if v.repPool > 0 {
						// The pool calls Build concurrently: no spans.
						b, err := batch(nil, v.repPool, nil)
						if err != nil {
							return layerRun{}, err
						}
						t0 := time.Now()
						_, err = b.Run(context.Background())
						return layerRun{batch: time.Since(t0)}, err
					}
					// Batch derives replication r's stream as the r-th
					// split of the master seed.
					return replayBroadcast(tr, spec, proto, xrand.New(seed).SplitN(reps), true, v.orAs(w))
				},
				built: built,
			}, nil
		},
	}
}

// lastStep keeps the most recent super-step record: the facade's folded
// Result drops the final measure, the observer still sees it.
type lastStep struct{ regcast.SuperStepStats }

func (l *lastStep) OnSuperStep(s regcast.SuperStepStats) { l.SuperStepStats = s }

// populationLeader runs leader election from the all-leaders start for a
// fixed budget of super-steps. At the full size the election does not
// converge inside the budget, so every sample does identical work.
func populationLeader(n, maxSteps, statSamples int) workload {
	return workload{
		name:        "population-leader",
		why:         "budget-censored leader election on the interaction scheduler: bypasses graph and phonecall, all time is the fused population kernel and batched pair draws",
		n:           n,
		statSamples: statSamples,
		population:  true,
		assemble: func(w *workload, rng *xrand.Rand, tr *tracer) (*job, error) {
			le, err := regcast.NewLeaderElection(n)
			if err != nil {
				return nil, err
			}
			seed := rng.Uint64()
			last := new(lastStep)
			sc := regcast.PopulationScenario{
				N:        n,
				Pair:     le,
				Init:     regcast.InitAllLeaders,
				Seed:     seed,
				MaxSteps: maxSteps,
				Observer: last,
			}
			var res regcast.Result
			return &job{
				run: func(ctx context.Context) error {
					res, err = regcast.NewRunner(regcast.WithWorkers(w.workers)).Run(ctx, sc)
					return err
				},
				check: func() (outcome, error) {
					out := outcome{
						events:    res.ChannelsDialed,
						rounds:    float64(res.Rounds),
						txPerNode: float64(res.ChannelsDialed) / float64(n),
						alive:     1,
						key:       [2]int64{int64(res.Rounds), res.Transmissions},
					}
					if last.Measure >= 1 {
						out.informed = 1
					}
					switch {
					case res.ChannelsDialed != int64(res.Rounds)*int64(n):
						return out, fmt.Errorf("%d interactions in %d super-steps of %d", res.ChannelsDialed, res.Rounds, n)
					case res.Rounds > maxSteps:
						return out, fmt.Errorf("%d super-steps exceed the budget %d", res.Rounds, maxSteps)
					case last.Measure < 1:
						return out, fmt.Errorf("no leader left (measure %d)", last.Measure)
					}
					return out, nil
				},
				replay: func(tr *tracer, v variant) (layerRun, error) {
					var pres population.Result
					var err error
					d := timed(tr, "population.run", func() {
						pres, err = population.Run(population.Config{
							N:               n,
							Pair:            le,
							Init:            regcast.InitAllLeaders,
							RNG:             xrand.New(seed),
							MaxSteps:        maxSteps,
							Workers:         v.orAs(w).workers,
							DisableFastPath: v.reference,
						})
					})
					lr := layerRun{
						run:     d,
						rounds:  int64(pres.Steps),
						events:  pres.Interactions,
						tx:      pres.Interactions,
						measure: int64(pres.Measure),
					}
					if pres.Converged {
						// As the facade folds it: interactions to convergence.
						lr.tx = pres.ConvergedInteractions
					}
					return lr, err
				},
				built: new(atomic.Int64),
			}, nil
		},
	}
}
