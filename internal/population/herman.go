// Herman's self-stabilizing token ring (synchronous coin-flip variant;
// analysed by Bruna, Grigore, Kiefer, Ouaknine, Worrell,
// arXiv:1504.01130): N agents on an odd ring each hold one bit x_i, and
// agent i is said to hold a token iff x_i == x_{i−1}. Every synchronous
// step, a token holder re-randomises its bit (the token then stays or
// merges with its successor's) while a non-holder copies its
// predecessor's bit. Any configuration of an odd ring carries an odd
// number of tokens — the count is N minus the (always even) number of
// bit changes around the ring — and token count never increases, so the
// protocol converges from every start to exactly one circulating token.
// The conjectured worst case (three equally spaced tokens) takes
// expected 4N²/27 steps.

package population

import "errors"

// Herman is the RingProtocol for Herman's token ring. State is the
// single bit x_i in bit 0.
type Herman struct{}

// NewHerman builds the protocol for an n-agent ring; n must be odd (an
// even ring admits token-free configurations, which break
// self-stabilization) and at least 3.
func NewHerman(n int) (*Herman, error) {
	if n < 3 || n%2 == 0 {
		return nil, errors.New("population: Herman's ring needs an odd n >= 3")
	}
	return &Herman{}, nil
}

// Name implements RingProtocol.
func (p *Herman) Name() string { return "herman-ring" }

// NeedsCoin implements RingProtocol: a coin is flipped exactly at token
// positions (x_i == x_{i−1}).
func (p *Herman) NeedsCoin(self, pred State) bool { return self&1 == pred&1 }

// Update implements RingProtocol: token holders take the coin bit,
// non-holders copy the predecessor.
func (p *Herman) Update(self, pred State, coin uint64) State {
	if self&1 == pred&1 {
		return State(coin & 1)
	}
	return pred & 1
}

// StateBound implements RingTableProtocol: states are the single bit.
func (p *Herman) StateBound() int { return 2 }

// CoinBits implements RingTableProtocol: Update consults one coin bit.
func (p *Herman) CoinBits() int { return 1 }

// Measure implements RingProtocol: the number of tokens.
func (p *Herman) Measure(cfg []State) int {
	n := len(cfg)
	tokens := 0
	for i := range cfg {
		if cfg[i]&1 == cfg[(i+n-1)%n]&1 {
			tokens++
		}
	}
	return tokens
}

// InitTokens builds an adversarial initial configuration with exactly k
// equally spaced tokens on an n-ring (k odd, 1 <= k <= n; k = 3 is the
// conjectured worst case). The bit string is constructed by walking the
// ring: a token position repeats the previous bit, a non-token position
// flips it; the wrap-around is consistent because n−k is even.
func InitTokens(n, k int) (func(i, n int, coin uint64) State, error) {
	if k < 1 || k > n || k%2 == 0 {
		return nil, errors.New("population: token count must be odd and within [1, n]")
	}
	token := make([]bool, n)
	for j := 0; j < k; j++ {
		token[j*n/k] = true
	}
	x := make([]State, n)
	x[0] = 0
	for i := 1; i < n; i++ {
		if token[i] {
			x[i] = x[i-1]
		} else {
			x[i] = 1 - x[i-1]
		}
	}
	return func(i, n int, coin uint64) State { return x[i] }, nil
}
