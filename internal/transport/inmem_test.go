package transport

import (
	"fmt"
	"sync"
)

// InMem is the package tests' in-process Transport, backed by buffered
// channels: the cluster, fault plan and ledger tests run over it without
// sockets. Its ledger has three buckets: Sends, Delivered and MailboxDrops.
type InMem struct {
	mu     sync.Mutex
	boxes  []chan Packet
	closed bool
	met    Metrics
}

var _ Transport = (*InMem)(nil)

// NewInMem creates an in-memory transport for n nodes with the given
// per-node mailbox capacity.
func NewInMem(n, mailbox int) (*InMem, error) {
	if n <= 0 || mailbox <= 0 {
		return nil, fmt.Errorf("transport: NewInMem(n=%d, mailbox=%d) invalid", n, mailbox)
	}
	t := &InMem{boxes: make([]chan Packet, n)}
	for i := range t.boxes {
		t.boxes[i] = make(chan Packet, mailbox)
	}
	return t, nil
}

// Send implements Transport. A full mailbox drops the packet (counted in
// MailboxDrops) rather than blocking, mirroring a lossy network.
func (t *InMem) Send(to int, p Packet) error {
	if to < 0 || to >= len(t.boxes) {
		return fmt.Errorf("transport: Send to %d out of range [0,%d)", to, len(t.boxes))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	t.met.Sends.Add(1)
	t.met.toMailbox(t.boxes[to], p)
	return nil
}

// Inbox implements Transport.
func (t *InMem) Inbox(node int) <-chan Packet { return t.boxes[node] }

// Health implements Transport.
func (t *InMem) Health() Health { return t.met.snapshot() }

// Close implements Transport.
func (t *InMem) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	for _, b := range t.boxes {
		close(b)
	}
	return nil
}
