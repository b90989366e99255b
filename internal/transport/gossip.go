package transport

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"regcast/internal/graph"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// unheard is a node's heardAt before it holds the rumour.
const unheard = phonecall.Uninformed

// node is one gossip participant. It takes every decision from the
// cluster's protocol and the tick in which it first held the rumour
// (heardAt), as a node of the round simulator does.
type node struct {
	id    int
	peers []int
	rng   *xrand.Rand // read by Tick alone

	mu      sync.Mutex
	heardAt int // the tick the rumour first arrived in; unheard before
}

// Cluster runs the phone call model's rounds as ticks over a transport:
// one node per vertex of a topology, pushing and answering pulls exactly
// when the scenario's protocol says so — the simulator's decision source.
// A transmission is a packet that carries the rumour (a push or a pull
// reply); pull requests are the channels the model dials.
type Cluster struct {
	nodes   []*node
	tr      Transport
	proto   phonecall.Protocol
	k       int
	picks   []int        // Tick's dial picks, reused across nodes and ticks
	scratch []int        // DistinctK's scratch, sized to the largest degree
	now     atomic.Int64 // the current tick, which stamps arrivals
	tx      atomic.Int64
	handled atomic.Int64 // inbox packets the node loops finished with
	wg      sync.WaitGroup

	mu    sync.Mutex
	fresh []int // nodes that first heard the rumour since the last Newly
}

// NewCluster builds one node per vertex of g, wired through tr, each
// dialling proto.Choices() random neighbours per tick and deciding by
// proto's SendPush and SendPull. Node RNGs derive from seed.
func NewCluster(g *graph.Graph, tr Transport, proto phonecall.Protocol, seed uint64) (*Cluster, error) {
	if g == nil || tr == nil || proto == nil {
		return nil, fmt.Errorf("transport: NewCluster requires graph, transport and protocol")
	}
	c := &Cluster{tr: tr, proto: proto, k: proto.Choices()}
	if c.k < 1 {
		return nil, fmt.Errorf("transport: NewCluster k=%d must be >= 1", c.k)
	}
	master := xrand.New(seed)
	maxDeg := 0
	for v := 0; v < g.NumNodes(); v++ {
		peers := make([]int, 0, g.Degree(v))
		for _, w := range g.Neighbors(v) {
			peers = append(peers, int(w))
		}
		c.nodes = append(c.nodes, &node{id: v, peers: peers, rng: master.Split(), heardAt: unheard})
		maxDeg = max(maxDeg, len(peers))
	}
	c.picks, c.scratch = make([]int, 0, c.k), make([]int, maxDeg)
	for _, n := range c.nodes {
		c.wg.Add(1)
		go func(n *node) {
			defer c.wg.Done()
			c.processLoop(n)
		}(n)
	}
	return c, nil
}

// hear stamps the rumour's first arrival at n with the current tick. The
// tick is read under the node's lock, which HeardAt takes too, so Tick(t)
// sees every arrival stamped before t.
func (c *Cluster) hear(n *node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.heardAt == unheard {
		n.heardAt = int(c.now.Load())
		c.mu.Lock()
		c.fresh = append(c.fresh, n.id)
		c.mu.Unlock()
	}
}

// processLoop drains a node's inbox until the transport closes it. A
// packet counts as handled only after everything it causes — the stamp, or
// the reply's Send — so Settle never sees a handled packet whose reply is
// not yet in the ledger.
func (c *Cluster) processLoop(n *node) {
	for p := range c.tr.Inbox(n.id) {
		switch p.Kind {
		case KindPush, KindPullReply:
			c.hear(n)
		case KindPullRequest:
			// The callee answers iff it held the rumour before this tick
			// and its cohort pulls now; otherwise it stays silent.
			t, at := int(c.now.Load()), c.HeardAt(n.id)
			if at == unheard || at >= t || !c.proto.SendPull(t, at) {
				break
			}
			if err := c.tr.Send(p.From, Packet{From: n.id, Kind: KindPullReply}); err == nil {
				c.tx.Add(1)
			}
		}
		c.handled.Add(1)
	}
}

// Transmissions returns the number of rumour-carrying packets (pushes and
// pull replies) successfully handed to the transport so far.
func (c *Cluster) Transmissions() int64 { return c.tx.Load() }

// Insert makes node a source of the cluster's one rumour: it holds it
// from tick 0.
func (c *Cluster) Insert(node int) error {
	if node < 0 || node >= len(c.nodes) {
		return fmt.Errorf("transport: Insert at node %d out of range", node)
	}
	n := c.nodes[node]
	n.mu.Lock()
	n.heardAt = 0
	n.mu.Unlock()
	return nil
}

// Tick runs round t (numbered from 1, increasing) on the tick's start
// state: every node picks min(k, deg) distinct peers, pushes the rumour to
// them iff it heard it before t and SendPush(t, heardAt), and sends them
// pull requests iff some informed cohort pulls in round t. A packet
// arriving during tick t stamps t, so no node acts in tick t on what it
// heard in it.
func (c *Cluster) Tick(t int) error {
	c.now.Store(int64(t))
	anyPull := slices.ContainsFunc(c.nodes, func(n *node) bool {
		at := c.HeardAt(n.id)
		return at != unheard && at < t && c.proto.SendPull(t, at)
	})
	for v, n := range c.nodes {
		at := c.HeardAt(v)
		push := at != unheard && at < t && c.proto.SendPush(t, at)
		c.picks = n.rng.DistinctK(c.picks, min(c.k, len(n.peers)), len(n.peers), c.scratch)
		for _, i := range c.picks {
			if push {
				if err := c.tr.Send(n.peers[i], Packet{From: v, Kind: KindPush}); err != nil {
					return fmt.Errorf("transport: push from %d to %d: %w", v, n.peers[i], err)
				}
				c.tx.Add(1)
			}
			if anyPull {
				if err := c.tr.Send(n.peers[i], Packet{From: v, Kind: KindPullRequest}); err != nil {
					return fmt.Errorf("transport: pull-request from %d to %d: %w", v, n.peers[i], err)
				}
			}
		}
	}
	return nil
}

// Newly appends to dst the nodes that first heard the rumour since the
// previous call, in ascending order, and returns it.
func (c *Cluster) Newly(dst []int) []int {
	c.mu.Lock()
	from := len(dst)
	dst = append(dst, c.fresh...)
	c.fresh = c.fresh[:0]
	c.mu.Unlock()
	slices.Sort(dst[from:])
	return dst
}

// HeardAt returns the tick in which node v first held the rumour, or
// phonecall.Uninformed.
func (c *Cluster) HeardAt(v int) int {
	n := c.nodes[v]
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.heardAt
}

// Settle waits until the cluster is silent — the transport's ledger has
// nothing in flight and the nodes have handled every delivered packet, so
// no packet is moving and none will until the next Tick — and reports
// whether deadline passed first. It reads the ledger, polling with a
// backoff capped at a millisecond; nothing is inferred from counts that
// merely stopped changing. A frame lost on a severed connection, or a
// fault plan's delay longer than the deadline, makes it time out.
func (c *Cluster) Settle(deadline time.Duration) (timedOut bool) {
	return !waitFor(deadline, c.settled)
}

// waitFor polls done with a backoff capped at a millisecond until it holds
// or deadline passes, and reports whether it held.
func waitFor(deadline time.Duration, done func() bool) bool {
	giveUp := time.NewTimer(deadline)
	defer giveUp.Stop()
	for wait := time.Microsecond; !done(); wait = min(2*wait, time.Millisecond) {
		select {
		case <-giveUp.C:
			return done()
		case <-time.After(wait):
		}
	}
	return true
}

// settled reads handled before the ledger: a packet's reply is sent before
// the packet counts as handled, so a handled count that includes it comes
// with a ledger that includes the reply.
func (c *Cluster) settled() bool {
	handled := c.handled.Load()
	h := c.tr.Health()
	return h.InFlight() == 0 && handled == h.Delivered
}

// Close shuts down the transport and waits for all node loops to finish.
func (c *Cluster) Close() error {
	err := c.tr.Close()
	c.wg.Wait()
	return err
}
