package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

// Node is an anti-entropy gossip participant: it continuously merges
// rumours from its inbox, answers pull requests, and — when ticked —
// contacts k random neighbours with a push packet and a pull request.
// This is the push&pull pattern of the phone call model running over a
// real transport instead of simulated rounds.
type Node struct {
	id    int
	tr    Transport
	peers []int
	k     int

	mu    sync.Mutex
	rng   *xrand.Rand
	known map[string]Rumor

	done chan struct{}
}

// Known returns a snapshot of the rumours this node has heard.
func (n *Node) Known() []Rumor {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Rumor, 0, len(n.known))
	for _, r := range n.known {
		out = append(out, r)
	}
	return out
}

// Knows reports whether the node has heard rumour id.
func (n *Node) Knows(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.known[id]
	return ok
}

// insert merges rumours and reports how many were new.
func (n *Node) insert(rs []Rumor) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	added := 0
	for _, r := range rs {
		if _, ok := n.known[r.ID]; !ok {
			n.known[r.ID] = r
			added++
		}
	}
	return added
}

// pickPeers selects min(k, len(peers)) distinct random neighbours.
func (n *Node) pickPeers() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := n.k
	if k > len(n.peers) {
		k = len(n.peers)
	}
	idx := n.rng.DistinctK(nil, k, len(n.peers), nil)
	out := make([]int, 0, k)
	for _, i := range idx {
		out = append(out, n.peers[i])
	}
	return out
}

// processLoop drains the inbox until the transport closes it. A packet
// counts as handled only after everything it causes — the insert, or the
// reply's Send — so Settle never sees a handled packet whose reply is not
// yet in the ledger.
func (n *Node) processLoop(c *Cluster) {
	defer close(n.done)
	for p := range n.tr.Inbox(n.id) {
		switch p.Kind {
		case KindPush, KindPullReply:
			n.insert(p.Rumors)
		case KindPullRequest:
			reply := Packet{From: n.id, Kind: KindPullReply, Rumors: n.Known()}
			if err := n.tr.Send(p.From, reply); err == nil {
				c.sent.Add(1)
			}
		}
		c.handled.Add(1)
	}
}

// Cluster couples gossip nodes over a transport according to a topology.
type Cluster struct {
	nodes   []*Node
	tr      Transport
	sent    atomic.Int64
	handled atomic.Int64 // inbox packets the node loops finished with
	wg      sync.WaitGroup
}

// NewCluster builds one Node per vertex of g, wired through tr, each
// contacting k random neighbours per tick. Node RNGs derive from seed.
func NewCluster(g *graph.Graph, tr Transport, k int, seed uint64) (*Cluster, error) {
	if g == nil || tr == nil {
		return nil, fmt.Errorf("transport: NewCluster requires graph and transport")
	}
	if k < 1 {
		return nil, fmt.Errorf("transport: NewCluster k=%d must be >= 1", k)
	}
	master := xrand.New(seed)
	c := &Cluster{tr: tr}
	for v := 0; v < g.NumNodes(); v++ {
		peers := make([]int, 0, g.Degree(v))
		for _, w := range g.Neighbors(v) {
			peers = append(peers, int(w))
		}
		n := &Node{
			id:    v,
			tr:    tr,
			peers: peers,
			k:     k,
			rng:   master.Split(),
			known: make(map[string]Rumor),
			done:  make(chan struct{}),
		}
		c.nodes = append(c.nodes, n)
	}
	for _, n := range c.nodes {
		c.wg.Add(1)
		go func(n *Node) {
			defer c.wg.Done()
			n.processLoop(c)
		}(n)
	}
	return c, nil
}

// Node returns the v-th node.
func (c *Cluster) Node(v int) *Node { return c.nodes[v] }

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// PacketsSent returns the number of packets successfully handed to the
// transport so far.
func (c *Cluster) PacketsSent() int64 { return c.sent.Load() }

// Insert seeds a rumour at the given node.
func (c *Cluster) Insert(node int, r Rumor) error {
	if node < 0 || node >= len(c.nodes) {
		return fmt.Errorf("transport: Insert at node %d out of range", node)
	}
	c.nodes[node].insert([]Rumor{r})
	return nil
}

// Tick makes every node that knows at least one rumour contact k random
// neighbours with a push packet, and every node (informed or not) issue a
// pull request to k random neighbours — one asynchronous "round".
func (c *Cluster) Tick() error {
	for _, n := range c.nodes {
		rumors := n.Known()
		for _, peer := range n.pickPeers() {
			if len(rumors) > 0 {
				if err := n.tr.Send(peer, Packet{From: n.id, Kind: KindPush, Rumors: rumors}); err != nil {
					return fmt.Errorf("transport: push from %d to %d: %w", n.id, peer, err)
				}
				c.sent.Add(1)
			}
			if err := n.tr.Send(peer, Packet{From: n.id, Kind: KindPullRequest}); err != nil {
				return fmt.Errorf("transport: pull-request from %d to %d: %w", n.id, peer, err)
			}
			c.sent.Add(1)
		}
	}
	return nil
}

// Settle waits until the cluster is silent — the transport's ledger has
// nothing in flight and the nodes have handled every delivered packet, so
// no packet is moving and none will until the next Tick — and reports
// whether deadline passed first. It reads the ledger, polling with a
// backoff capped at a millisecond; nothing is inferred from counts that
// merely stopped changing. A frame lost on a severed connection, or a
// fault plan's delay longer than the deadline, makes it time out.
func (c *Cluster) Settle(deadline time.Duration) (timedOut bool) {
	giveUp := time.NewTimer(deadline)
	defer giveUp.Stop()
	for wait := time.Microsecond; !c.settled(); wait = min(2*wait, time.Millisecond) {
		select {
		case <-giveUp.C:
			return !c.settled()
		case <-time.After(wait):
		}
	}
	return false
}

// settled reads handled before the ledger: a packet's reply is sent before
// the packet counts as handled, so a handled count that includes it comes
// with a ledger that includes the reply.
func (c *Cluster) settled() bool {
	handled := c.handled.Load()
	h := c.tr.Health()
	return h.InFlight() == 0 && handled == h.Delivered
}

// CountKnowing returns how many nodes have heard rumour id.
func (c *Cluster) CountKnowing(id string) int {
	count := 0
	for _, n := range c.nodes {
		if n.Knows(id) {
			count++
		}
	}
	return count
}

// Close shuts down the transport and waits for all node loops to finish.
func (c *Cluster) Close() error {
	err := c.tr.Close()
	c.wg.Wait()
	return err
}
