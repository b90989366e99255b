// Package transport provides message transports and a gossip cluster that
// runs a phone call protocol's rounds as ticks over real channels — the
// deployment-shaped counterpart of the round-based simulator, deciding by
// the same Protocol calls. The
// transport is the Daemon (newline-delimited JSON frames over persistent
// loopback TCP connections); FaultPlan wraps any Transport with seeded
// chaos, and the package tests run the cluster over an in-memory fake.
package transport

import (
	"errors"
	"fmt"
)

// ErrClosed is returned by Send after the transport has shut down. Every
// transport returns it (possibly wrapped — test with errors.Is), so
// callers can distinguish "the transport is gone" from a transient
// delivery failure deterministically.
var ErrClosed = errors.New("transport: closed")

// Kind enumerates packet types.
type Kind int

const (
	// KindPush carries the cluster's one rumour to the receiver.
	KindPush Kind = iota + 1
	// KindPullRequest asks the receiver for the rumour; it carries none.
	KindPullRequest
	// KindPullReply answers a pull request with the rumour.
	KindPullReply
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPush:
		return "push"
	case KindPullRequest:
		return "pull-request"
	case KindPullReply:
		return "pull-reply"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Packet is the unit of exchange between nodes. A cluster spreads one
// rumour, so the kind says all a packet carries: a push or a pull reply
// brings the rumour, a pull request asks for it.
type Packet struct {
	From int  `json:"from"`
	To   int  `json:"to"`
	Kind Kind `json:"kind"`
}

// Transport delivers packets between numbered nodes. Implementations must
// be safe for concurrent Send calls.
type Transport interface {
	// Send delivers p to node `to` (p.To is set by Send).
	Send(to int, p Packet) error
	// Inbox returns the receive channel of a node. The channel is closed
	// when the transport shuts down.
	Inbox(node int) <-chan Packet
	// Health snapshots the transport's ledger (see Metrics).
	Health() Health
	// Close shuts the transport down and releases resources.
	Close() error
}

// toMailbox is the terminal accounting point of a mailbox insert (the
// Daemon's, and the test fake's): Delivered is counted before the packet
// becomes visible to the node's loop and taken back, before the drop is
// counted, when the mailbox is full (the order Metrics.snapshot relies on).
func (m *Metrics) toMailbox(box chan<- Packet, p Packet) bool {
	m.Delivered.Add(1)
	select {
	case box <- p:
		return true
	default:
		m.Delivered.Add(-1)
		m.MailboxDrops.Add(1)
		return false
	}
}
