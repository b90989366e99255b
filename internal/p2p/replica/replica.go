// Package replica implements the paper's motivating application: a
// replicated database whose updates are disseminated by randomised
// broadcasting (Demers et al.'s anti-entropy setting, §1 of the paper).
//
// Every replica holds a last-writer-wins key-value store. A write is an
// upsert: it sets its key's value, and there is no deletion. A write issued
// at some replica becomes a rumour; all concurrent rumours spread through
// the shared per-round channels of the multi-message phone call engine
// under the four-choice schedule (or any other phonecall.Protocol). Once
// every replica has received every update, all stores converge to the same
// contents — the property the paper's transmission bounds make cheap to
// maintain at scale.
package replica

import (
	"fmt"
	"sort"

	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// Version orders writes: higher Seq wins; ties break by higher Origin (an
// arbitrary but deterministic tiebreak, as in classic LWW registers).
type Version struct {
	Seq    uint64
	Origin int
}

// Less reports whether v orders strictly before w.
func (v Version) Less(w Version) bool {
	if v.Seq != w.Seq {
		return v.Seq < w.Seq
	}
	return v.Origin < w.Origin
}

// Entry is one stored value with its winning version.
type Entry struct {
	Value   string
	Version Version
}

// Store is a last-writer-wins key-value store. The zero value is ready to
// use. Store is not safe for concurrent use.
type Store struct {
	entries map[string]Entry
}

// Get returns the current value and whether the key exists.
func (s *Store) Get(key string) (string, bool) {
	e, ok := s.entries[key]
	return e.Value, ok
}

// Apply merges one write into the store; later versions win, equal and
// older versions are ignored. It reports whether the store changed.
func (s *Store) Apply(key, value string, v Version) bool {
	return s.applyEntry(key, Entry{Value: value, Version: v})
}

func (s *Store) applyEntry(key string, e Entry) bool {
	if s.entries == nil {
		s.entries = make(map[string]Entry)
	}
	cur, ok := s.entries[key]
	if ok && !cur.Version.Less(e.Version) {
		return false
	}
	s.entries[key] = e
	return true
}

// Len returns the number of keys.
func (s *Store) Len() int {
	return len(s.entries)
}

// Fingerprint returns a canonical representation of the full contents,
// usable for convergence comparison.
func (s *Store) Fingerprint() string {
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		e := s.entries[k]
		out += fmt.Sprintf("%s=%s@%d.%d;", k, e.Value, e.Version.Seq, e.Version.Origin)
	}
	return out
}

// Write is one update issued into the cluster.
type Write struct {
	Key    string
	Value  string
	Origin int // replica issuing the write
	Round  int // round at which the write is issued (>= 0)
}

// Config configures a cluster simulation.
type Config struct {
	// Topology is the replica network.
	Topology phonecall.Topology
	// Protocol is the dissemination schedule each update follows.
	Protocol phonecall.Protocol
	// RNG drives the simulation.
	RNG *xrand.Rand
	// MessageLossProb is the probability that a transmission is lost.
	MessageLossProb float64
}

// Report summarises a cluster run.
type Report struct {
	// Converged is true when every alive replica received every update
	// (hence all stores are identical).
	Converged bool
	// ConvergedAtRound is the earliest round by which the last-finishing
	// update had reached everyone (-1 if never).
	ConvergedAtRound int
	// TransmissionsPerUpdate is the mean number of per-message
	// transmissions across updates.
	TransmissionsPerUpdate float64
	// TotalTransmissions sums transmissions across updates.
	TotalTransmissions int64
	// UpdateResults holds the per-update dissemination outcomes.
	UpdateResults []phonecall.MessageResult
	// Stores holds the final store of every replica (index = node id).
	Stores []Store
}

// indexBits is the width of the write index in a Version.Seq; the issue
// round occupies the bits above it. One more write than maxWrites and the
// index would bleed into the round bits, letting LWW pick a wrong winner.
const (
	indexBits = 20
	maxWrites = 1 << indexBits
)

// Run simulates the cluster processing the given writes and returns the
// convergence report.
func Run(cfg Config, writes []Write) (Report, error) {
	if len(writes) == 0 {
		return Report{}, fmt.Errorf("replica: no writes to process")
	}
	if cfg.Topology == nil || cfg.Protocol == nil || cfg.RNG == nil {
		return Report{}, fmt.Errorf("replica: Config requires Topology, Protocol and RNG")
	}
	if len(writes) > maxWrites {
		return Report{}, fmt.Errorf("replica: %d writes exceed the %d a version's index bits can order", len(writes), maxWrites)
	}
	msgs := make([]phonecall.Message, len(writes))
	lastRound := 0
	for i, w := range writes {
		if w.Round < 0 {
			return Report{}, fmt.Errorf("replica: write %d has negative round", i)
		}
		msgs[i] = phonecall.Message{ID: i, Origin: w.Origin, CreatedAt: w.Round}
		if end := w.Round + cfg.Protocol.Horizon(); end > lastRound {
			lastRound = end
		}
	}
	eng, err := phonecall.NewMultiEngine(phonecall.MultiConfig{
		Topology:        cfg.Topology,
		Protocol:        cfg.Protocol,
		Messages:        msgs,
		Rounds:          lastRound,
		RNG:             cfg.RNG,
		MessageLossProb: cfg.MessageLossProb,
	})
	if err != nil {
		return Report{}, fmt.Errorf("replica: %w", err)
	}
	mres := eng.Run()

	rep := Report{
		Converged:        true,
		ConvergedAtRound: -1,
		UpdateResults:    mres.PerMessage,
	}
	n := cfg.Topology.NumNodes()
	rep.Stores = make([]Store, n)
	for mi, w := range writes {
		recv := eng.ReceivedAt(mi)
		v := Version{Seq: uint64(w.Round)<<indexBits | uint64(mi), Origin: w.Origin}
		for node := 0; node < n; node++ {
			if recv[node] == phonecall.Uninformed || !cfg.Topology.Alive(node) {
				continue
			}
			rep.Stores[node].Apply(w.Key, w.Value, v)
		}
		mr := mres.PerMessage[mi]
		rep.TotalTransmissions += mr.Transmissions
		if !mr.AllInformed {
			rep.Converged = false
		}
		if mr.FirstAllInformed > rep.ConvergedAtRound {
			rep.ConvergedAtRound = mr.FirstAllInformed
		}
	}
	if !rep.Converged {
		rep.ConvergedAtRound = -1
	}
	rep.TransmissionsPerUpdate = float64(rep.TotalTransmissions) / float64(len(writes))
	return rep, nil
}

// StoresConverged reports whether every alive replica's store fingerprint
// matches (vacuously true for < 2 alive replicas).
func StoresConverged(topo phonecall.Topology, stores []Store) bool {
	ref := ""
	seen := false
	for v := 0; v < topo.NumNodes(); v++ {
		if !topo.Alive(v) {
			continue
		}
		fp := stores[v].Fingerprint()
		if !seen {
			ref, seen = fp, true
			continue
		}
		if fp != ref {
			return false
		}
	}
	return true
}
