package phonecall

import (
	"fmt"

	"regcast/internal/xrand"
)

// Message is one rumour in a multi-message run. Messages are created at
// their origin node at the end of round CreatedAt (the origin knows the
// message from round CreatedAt+1 onward), and each message follows the
// protocol schedule relative to its own age, exactly as in the paper
// ("the algorithm will be run for every message"; nodes combine all
// messages due in the same direction into one physical packet, but the
// analysis — and our accounting — counts transmissions per message).
type Message struct {
	ID        int
	Origin    int
	CreatedAt int
}

// MultiConfig describes a multi-message run.
type MultiConfig struct {
	Topology Topology
	Protocol Protocol
	Messages []Message
	// Rounds is the total number of rounds to simulate. Messages whose
	// schedule extends past this horizon simply stop early.
	Rounds          int
	RNG             *xrand.Rand
	MessageLossProb float64
}

// MessageResult summarises the dissemination of one message.
type MessageResult struct {
	Message          Message
	Transmissions    int64
	Informed         int
	AllInformed      bool
	FirstAllInformed int // absolute round; -1 if never
}

// MultiResult summarises a completed multi-message run.
type MultiResult struct {
	Rounds         int
	PerMessage     []MessageResult
	Transmissions  int64 // sum of per-message transmissions
	ChannelsDialed int64
}

// MultiEngine simulates many concurrently disseminating messages that share
// the per-round channels, as in a replicated-database workload. It is a
// driver over one Engine: every active message of a round is one
// Engine.round call at the message's own age, over the message's receipt
// ages and cohort counts, and all of them ride on the dial rows the
// round's first call sampled. Like an Engine it is single use.
type MultiEngine struct {
	cfg MultiConfig
	eng *Engine

	// Per message: age[m][v] is the age (round − CreatedAt) at which v first
	// received m, Uninformed if never; informed[m] is its bitset;
	// cohort[m] holds m's per-shard cohort counts, shard-major like the
	// engine's own.
	age      [][]int32
	informed [][]uint64
	cohort   [][]int32
}

// NewMultiEngine validates cfg and prepares a run.
func NewMultiEngine(cfg MultiConfig) (*MultiEngine, error) {
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("phonecall: MultiConfig.Rounds = %d < 1", cfg.Rounds)
	}
	if _, dynamic := cfg.Topology.(Stepper); dynamic { // Run never steps it
		return nil, fmt.Errorf("phonecall: a MultiEngine requires a static topology")
	}
	eng, err := newEngine(Config{
		Topology:        cfg.Topology,
		Protocol:        cfg.Protocol,
		RNG:             cfg.RNG,
		MessageLossProb: cfg.MessageLossProb,
	})
	if err != nil {
		return nil, err
	}
	for _, m := range cfg.Messages {
		if err := CheckOrigin(cfg.Topology, fmt.Sprintf("message %d origin", m.ID), m.Origin); err != nil {
			return nil, err
		}
		if m.CreatedAt < 0 {
			return nil, fmt.Errorf("phonecall: message %d created at negative round %d", m.ID, m.CreatedAt)
		}
	}
	// The rows must outlive the shard passes of the round's first message.
	eng.allRows = make([]int32, eng.n*eng.k)
	e := &MultiEngine{cfg: cfg, eng: eng}
	e.age = make([][]int32, len(cfg.Messages))
	e.informed = make([][]uint64, len(cfg.Messages))
	e.cohort = make([][]int32, len(cfg.Messages))
	for i := range e.age {
		e.age[i] = make([]int32, eng.n)
		for v := range e.age[i] {
			e.age[i][v] = Uninformed
		}
		e.informed[i] = make([]uint64, len(eng.informedBits))
		e.cohort[i] = make([]int32, len(eng.shards)*(cfg.Protocol.Horizon()+1))
	}
	return e, nil
}

// Run executes the configured number of rounds, once: a second call panics.
func (e *MultiEngine) Run() MultiResult {
	eng := e.eng
	eng.spend()
	res := MultiResult{Rounds: e.cfg.Rounds}
	res.PerMessage = make([]MessageResult, len(e.cfg.Messages))
	for mi, m := range e.cfg.Messages {
		res.PerMessage[mi] = MessageResult{Message: m, FirstAllInformed: -1}
	}
	horizon := eng.cfg.Protocol.Horizon()
	alive := eng.aliveCount()
	ages := horizon + 1 // receipt ages 0..Horizon

	for t := 1; t <= e.cfg.Rounds; t++ {
		res.ChannelsDialed += eng.budget
		// The round's channels are sampled once, by the first active
		// message, for every alive node; the later ones reuse the rows.
		dial := dialEveryone
		for mi := range res.PerMessage {
			mr := &res.PerMessage[mi]
			age := t - mr.Message.CreatedAt
			if age < 1 || age > horizon {
				continue // message inactive this round
			}
			eng.informedAt, eng.informedBits = e.age[mi], e.informed[mi]
			for i := range eng.shards {
				eng.shards[i].cohort = e.cohort[mi][i*ages : (i+1)*ages]
			}
			if age == 1 {
				// Created at the end of the previous round.
				eng.inform(eng.shardOf(mr.Message.Origin), mr.Message.Origin, 0)
				mr.Informed = 1
			}
			newly, tx := eng.round(age, dial)
			dial = dialSampled
			mr.Transmissions += tx
			mr.Informed += newly
			if mr.FirstAllInformed < 0 && mr.Informed == alive {
				mr.FirstAllInformed = t
			}
		}
	}

	for mi := range res.PerMessage {
		mr := &res.PerMessage[mi]
		mr.AllInformed = mr.Informed == alive
		res.Transmissions += mr.Transmissions
	}
	return res
}

// ReceivedAt exposes, for message index mi, the round each node first
// received it (Uninformed if never). The returned slice is a copy.
func (e *MultiEngine) ReceivedAt(mi int) []int32 {
	out := append([]int32(nil), e.age[mi]...)
	for v, a := range out {
		if a != Uninformed {
			out[v] = a + int32(e.cfg.Messages[mi].CreatedAt)
		}
	}
	return out
}
