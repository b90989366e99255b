package transport

import (
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// dupemap is an expiring duplicate-suppression set in the style of the
// dusk-blockchain dupemap/tmpmap: keys live in a ring of generation
// buckets, lookups probe every generation, inserts go to the current one,
// and each rotation advances the ring and clears the oldest bucket. A key
// is therefore remembered for between (gens−1) and gens rotation intervals
// and then forgotten — which is what makes dedup safe for gossip: even a
// key that slipped in without a delivery (it cannot, see Daemon.receive,
// but defence in depth) only suppresses its content until expiry.
//
// Rotation happens on access: every Has and Add first rotates once per
// interval that ended by the caller's now, so no goroutine or ticker keeps
// the ring turning and a test drives it with a replaced clock.
//
// A per-generation capacity bounds memory against key floods: when the
// current bucket is full, an insert forces an early rotation instead of
// growing without limit.
type dupemap struct {
	mu     sync.Mutex
	gens   []map[uint64]struct{}
	cur    int
	maxGen int           // per-generation key capacity
	every  time.Duration // rotation interval; <= 0 rotates on capacity only
	next   time.Time     // when the current interval ends
}

// newDupemap builds a dupemap with the given generation count (>= 2),
// per-generation capacity and rotation interval, its first interval
// starting at now.
func newDupemap(gens, maxGen int, every time.Duration, now time.Time) *dupemap {
	if gens < 2 {
		gens = 2
	}
	if maxGen <= 0 {
		maxGen = 1 << 16
	}
	m := &dupemap{gens: make([]map[uint64]struct{}, gens), maxGen: maxGen, every: every, next: now.Add(every)}
	for i := range m.gens {
		m.gens[i] = make(map[uint64]struct{})
	}
	return m
}

// Has reports whether key is present in any generation live at now.
func (m *dupemap) Has(key uint64, now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(now)
	for _, g := range m.gens {
		if _, ok := g[key]; ok {
			return true
		}
	}
	return false
}

// Add records key in the generation current at now, rotating first if it
// is at capacity.
func (m *dupemap) Add(key uint64, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(now)
	if len(m.gens[m.cur]) >= m.maxGen {
		m.rotateLocked()
	}
	m.gens[m.cur][key] = struct{}{}
}

// expireLocked rotates once per interval ended by now. After a gap long
// enough to clear the whole ring the schedule restarts at now.
func (m *dupemap) expireLocked(now time.Time) {
	for i := 0; m.every > 0 && !now.Before(m.next); i++ {
		if i == len(m.gens) {
			m.next = now.Add(m.every)
			return
		}
		m.rotateLocked()
		m.next = m.next.Add(m.every)
	}
}

func (m *dupemap) rotateLocked() {
	m.cur = (m.cur + 1) % len(m.gens)
	m.gens[m.cur] = make(map[uint64]struct{})
}

// contentKey hashes a packet's rumour content for deduplication at
// receiver `to`. Only rumour-bearing packets (push, pull-reply) are
// deduplicable — a pull request carries a question, not content, and
// must never be suppressed. The key is content-addressed: the sorted
// rumour IDs and payloads, independent of sender and kind, so a
// pull-reply repeating an already-delivered push is suppressed too.
// Sorting matters because senders snapshot their rumour map in random
// iteration order.
func contentKey(to int, p Packet) (uint64, bool) {
	if len(p.Rumors) == 0 {
		return 0, false
	}
	parts := make([]string, 0, len(p.Rumors))
	for _, r := range p.Rumors {
		parts = append(parts, r.ID+"\x00"+r.Payload)
	}
	sort.Strings(parts)
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(to) >> (8 * i))
	}
	_, _ = h.Write(b[:])
	for _, s := range parts {
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{0x1f})
	}
	return h.Sum64(), true
}
