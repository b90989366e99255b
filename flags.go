package regcast

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// CommonFlags is the flag surface shared by every regcast command:
// one -seed and one -workers flag with identical names, defaults, and
// semantics across binaries — and one pair of pprof hooks and the -phases
// summary — parsed through
// this single helper so the commands cannot drift apart again.
type CommonFlags struct {
	// Seed is the master random seed; all of a command's randomness
	// (topology generation and the runs themselves) derives from it.
	Seed uint64
	// Workers chooses where the engines' shard passes run: 0 = inline on
	// the calling goroutine, -1 = a pool of GOMAXPROCS workers, n >= 1 = a
	// pool of n workers. It never changes a result, only wall-clock time.
	Workers int
	// SchedulerName is the raw -scheduler value ("rounds" or
	// "interactions"); Validate parses it and Scheduler returns the
	// typed selection.
	SchedulerName string
	// CPUProfile and MemProfile name the files StartProfiles writes a CPU
	// and a heap profile to (`go tool pprof <binary> <file>`); empty means
	// no profile.
	CPUProfile string
	MemProfile string
	// Phases asks for the run's summed round-phase times (PhaseTotals),
	// printed in one line after the run.
	Phases bool

	scheduler Scheduler
}

// AddCommonFlags registers the canonical -seed/-workers/-scheduler flags
// on fs and returns the struct their parsed values land in.
func AddCommonFlags(fs *flag.FlagSet) *CommonFlags {
	f := &CommonFlags{}
	fs.Uint64Var(&f.Seed, "seed", 1, "master random seed (topology and runs derive from it)")
	fs.IntVar(&f.Workers, "workers", 0,
		"engine workers: 0 = shard passes inline, -1 = pool of GOMAXPROCS, n = pool of n; results are identical for every value")
	fs.StringVar(&f.SchedulerName, "scheduler", SchedulerRounds.String(),
		"engine family: rounds = phone-call round model, interactions = population-protocol pairwise interactions (broadcast-sim, experiments)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the command to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file when the command ends")
	fs.BoolVar(&f.Phases, "phases", false,
		"print the simulator's round-phase times summed over the run: decision tables, shard passes, merge, counted rounds (broadcast-sim, graphgen, overlay-sim)")
	return f
}

// PhaseTotals returns a fresh -phases observer, or nil when the flag is off:
// a command registers it with WithObserver and prints it after the run.
func (f *CommonFlags) PhaseTotals() *PhaseTotals {
	if !f.Phases {
		return nil
	}
	return &PhaseTotals{}
}

// StartProfiles starts the CPU profile -cpuprofile asks for and returns
// the function that ends it and writes the heap profile -memprofile asks
// for; a command calls it once after Validate and defers stop. Both files
// are created here, so an unwritable path fails before the work starts.
// With neither flag set it does nothing.
func (f *CommonFlags) StartProfiles() (stop func(), err error) {
	var cpu, mem *os.File
	if f.CPUProfile != "" {
		if cpu, err = os.Create(f.CPUProfile); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	stopCPU := func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "-cpuprofile:", err)
			}
		}
	}
	if f.MemProfile != "" {
		if mem, err = os.Create(f.MemProfile); err != nil {
			stopCPU()
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	return func() {
		stopCPU()
		if mem != nil {
			runtime.GC() // the heap profile is as of the last collection
			err := pprof.WriteHeapProfile(mem)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "-memprofile:", err)
			}
		}
	}, nil
}

// Validate rejects flag values no engine accepts.
func (f *CommonFlags) Validate() error {
	if f.Workers < WorkersAuto {
		return fmt.Errorf("-workers %d invalid (use -1, 0 or a positive count)", f.Workers)
	}
	s, err := ParseScheduler(f.SchedulerName)
	if err != nil {
		return fmt.Errorf("-scheduler %q invalid (use rounds or interactions)", f.SchedulerName)
	}
	f.scheduler = s
	return nil
}

// Scheduler returns the engine family the -scheduler flag selected;
// call Validate first.
func (f *CommonFlags) Scheduler() Scheduler { return f.scheduler }

// Rand returns the master RNG derived from -seed; Split it per consumer.
func (f *CommonFlags) Rand() *Rand { return NewRand(f.Seed) }

// RunnerOptions translates the -workers flag into WithWorkers — the single
// definition of the flag's semantics.
func (f *CommonFlags) RunnerOptions() []RunnerOption {
	return []RunnerOption{WithWorkers(f.Workers)}
}

// TransportFlags is the shared flag surface for commands that can run a
// scenario over the resilient gossip daemon, optionally under injected
// chaos. Register with AddTransportFlags, check Validate, and pass
// RunnerOptions() alongside CommonFlags.RunnerOptions().
type TransportFlags struct {
	// Daemon selects EngineDaemonTransport (persistent peers redialled
	// with backoff, dedup, health metrics).
	Daemon bool
	// Chaos enables the seeded fault plan; implies Daemon.
	Chaos bool
	// Partition is an optional "from:until" tick window during which the
	// node set is split into two halves (low ids vs high ids).
	Partition string
	// Crash is an optional "node:from:until" transport-level
	// crash-restart window.
	Crash string
	// Mailbox is the per-node inbox capacity of the daemon engine.
	Mailbox int

	faults    FaultConfig      // the -chaos-* seed, probabilities and delay
	partition *PartitionWindow // parsed by Validate (nil when unset)
	crash     *CrashWindow
}

// AddTransportFlags registers the canonical daemon/chaos flags on fs.
func AddTransportFlags(fs *flag.FlagSet) *TransportFlags {
	f := &TransportFlags{}
	fs.BoolVar(&f.Daemon, "daemon", false,
		"run over the resilient gossip daemon (persistent peers redialled with backoff, dedup, health metrics)")
	fs.BoolVar(&f.Chaos, "chaos", false,
		"inject seeded, reproducible faults in front of the daemon (implies -daemon)")
	fs.Uint64Var(&f.faults.Seed, "chaos-seed", 0, "fault-plan seed (0 = derive from -seed)")
	fs.Float64Var(&f.faults.Drop, "chaos-drop", 0.2, "per-packet drop probability under -chaos")
	fs.Float64Var(&f.faults.Duplicate, "chaos-dup", 0, "per-packet duplication probability under -chaos")
	fs.Float64Var(&f.faults.Reorder, "chaos-reorder", 0, "per-packet pairwise-reorder probability under -chaos")
	fs.Float64Var(&f.faults.DelayProb, "chaos-delay-prob", 0, "per-packet delay probability under -chaos")
	fs.DurationVar(&f.faults.Delay, "chaos-delay", 5*time.Millisecond, "delay applied to delayed packets")
	fs.StringVar(&f.Partition, "chaos-partition", "",
		"partition window from:until (ticks, half-open); splits nodes into low/high halves")
	fs.StringVar(&f.Crash, "chaos-crash", "",
		"crash-restart window node:from:until (ticks, half-open)")
	fs.IntVar(&f.Mailbox, "mailbox", 0, "per-node transport mailbox capacity (0 = engine default)")
	return f
}

// Validate parses the window flags and rejects out-of-range values; the
// fault plan's own check (FaultConfig.Validate) judges the probabilities
// and the delay.
func (f *TransportFlags) Validate() error {
	if f.Chaos {
		f.Daemon = true
	}
	if err := f.faults.Validate(); err != nil {
		return err
	}
	if f.Mailbox < 0 {
		return fmt.Errorf("-mailbox %d negative", f.Mailbox)
	}
	if f.Partition != "" {
		from, until, err := parseWindow2(f.Partition)
		if err != nil {
			return fmt.Errorf("-chaos-partition: %w", err)
		}
		f.partition = &PartitionWindow{From: from, Until: until}
	}
	if f.Crash != "" {
		parts := strings.Split(f.Crash, ":")
		if len(parts) != 3 {
			return fmt.Errorf("-chaos-crash: want node:from:until, got %q", f.Crash)
		}
		node, err1 := strconv.Atoi(parts[0])
		from, until, err2 := parseWindow2(parts[1] + ":" + parts[2])
		if err1 != nil || err2 != nil || node < 0 {
			return fmt.Errorf("-chaos-crash: want node:from:until, got %q", f.Crash)
		}
		f.crash = &CrashWindow{Node: node, From: from, Until: until}
	}
	return nil
}

// parseWindow2 parses "from:until" into a half-open int window.
func parseWindow2(s string) (from, until int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want from:until, got %q", s)
	}
	from, err1 := strconv.Atoi(parts[0])
	until, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || from < 0 || until < from {
		return 0, 0, fmt.Errorf("want 0 <= from <= until, got %q", s)
	}
	return from, until, nil
}

// FaultConfig assembles the chaos schedule the flags describe, splitting
// n nodes into low/high halves for the partition window. It returns nil
// when -chaos is off. seed is used when -chaos-seed is 0.
func (f *TransportFlags) FaultConfig(n int, seed uint64) *FaultConfig {
	if !f.Chaos {
		return nil
	}
	cfg := f.faults
	if cfg.Seed == 0 {
		cfg.Seed = seed
	}
	if f.partition != nil {
		w := *f.partition
		for v := 0; v < n/2; v++ {
			w.A = append(w.A, v)
		}
		cfg.Partitions = []PartitionWindow{w}
	}
	if f.crash != nil {
		cfg.Crashes = []CrashWindow{*f.crash}
	}
	return &cfg
}

// RunnerOptions translates the flags into Runner options for an n-node
// scenario; empty when -daemon/-chaos are off.
func (f *TransportFlags) RunnerOptions(n int, seed uint64) []RunnerOption {
	var opts []RunnerOption
	if !f.Daemon {
		return opts
	}
	opts = append(opts, WithEngine(EngineDaemonTransport))
	if f.Mailbox > 0 {
		opts = append(opts, WithMailbox(f.Mailbox))
	}
	if cfg := f.FaultConfig(n, seed); cfg != nil {
		opts = append(opts, WithTransportFaults(*cfg))
	}
	return opts
}
