package regcast

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// maxHypercubeDim is the largest dimension the implicit hypercube builds:
// 2^30 ids.
const maxHypercubeDim = 30

// ParseTopologySpec parses the string form of a TopologySpec:
//
//	family:key=value,key=value,...
//
// so every topology family — including the implicit ones that break the
// memory wall — is reachable from any command line or config file
// without code changes. Families and their keys:
//
//	regular:n=4096,d=8                    RegularGraphSpec
//	config:n=4096,d=8[,erased]            ConfigurationModelSpec
//	gnp:n=4096,p=0.004                    GnpSpec
//	hypercube:dim=27[,dense]              HypercubeSpec (implicit unless dense)
//	torus:rows=64,cols=64[,dense]         TorusSpec (implicit unless dense)
//	gnp-stream:n=4096,p=0.004[,dense]     GnpStreamSpec (implicit unless dense)
//	regular-stream:n=4096,d=8[,dense]     RegularStreamSpec (implicit unless dense)
//	overlay:n=4096,d=8[,headroom=0,join=0.01,leave=0.01,mix=8]  OverlaySpec
//
// Boolean keys may be given bare (`dense`) or explicitly (`dense=true`).
// ParseTopologySpec rejects unknown families, unknown keys, malformed
// values, and values no Build could accept: a negative integer, a
// probability outside [0, 1] (NaN included), a hypercube dimension above
// 30, and an id space (SpecNodeCount) beyond math.MaxInt32, the engines'
// int32 node ids. Family-specific constraints (parity, n > d, connectivity
// of the parameters) stay with each spec's Build, which is where the
// programmatic API reports them.
func ParseTopologySpec(s string) (TopologySpec, error) {
	family := s
	params := ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		family, params = s[:i], s[i+1:]
	}
	p, err := parseSpecParams(params)
	if err != nil {
		return nil, fmt.Errorf("regcast: topology spec %q: %w", s, err)
	}
	var spec TopologySpec
	switch family {
	case "regular":
		spec = RegularGraphSpec{N: p.intKey("n"), D: p.intKey("d")}
	case "config":
		spec = ConfigurationModelSpec{N: p.intKey("n"), D: p.intKey("d"), Erased: p.boolKey("erased")}
	case "gnp":
		spec = GnpSpec{N: p.intKey("n"), P: p.probKey("p")}
	case "hypercube":
		dim := p.intKey("dim")
		if dim > maxHypercubeDim {
			p.fail(fmt.Errorf("key %q: %d above %d", "dim", dim, maxHypercubeDim))
		}
		spec = HypercubeSpec{Dim: dim, Dense: p.boolKey("dense")}
	case "torus":
		spec = TorusSpec{Rows: p.intKey("rows"), Cols: p.intKey("cols"), Dense: p.boolKey("dense")}
	case "gnp-stream":
		spec = GnpStreamSpec{N: p.intKey("n"), P: p.probKey("p"), Dense: p.boolKey("dense")}
	case "regular-stream":
		spec = RegularStreamSpec{N: p.intKey("n"), D: p.intKey("d"), Dense: p.boolKey("dense")}
	case "overlay":
		spec = OverlaySpec{
			N:         p.intKey("n"),
			D:         p.intKey("d"),
			Headroom:  p.intKey("headroom"),
			JoinProb:  p.probKey("join"),
			LeaveProb: p.probKey("leave"),
			MixSteps:  p.intKey("mix"),
		}
	default:
		return nil, fmt.Errorf("regcast: topology spec %q: unknown family %q (want regular, config, gnp, hypercube, torus, gnp-stream, regular-stream or overlay)", s, family)
	}
	if p.err == nil && SpecNodeCount(spec) > math.MaxInt32 {
		p.fail(fmt.Errorf("%d node ids exceed the int32 id space", SpecNodeCount(spec)))
	}
	if p.err != nil {
		return nil, fmt.Errorf("regcast: topology spec %q: %w", s, p.err)
	}
	if len(p.vals) > 0 {
		for k := range p.vals {
			return nil, fmt.Errorf("regcast: topology spec %q: unknown key %q for family %q", s, k, family)
		}
	}
	return spec, nil
}

// specParams accumulates key lookups and defers value errors so the
// family cases above read declaratively; consumed keys are removed, and
// whatever is left is unknown.
type specParams struct {
	vals map[string]string
	err  error
}

func parseSpecParams(s string) (*specParams, error) {
	p := &specParams{vals: map[string]string{}}
	if s == "" {
		return p, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			v = "true" // bare key: boolean shorthand
		}
		k = strings.TrimSpace(k)
		if k == "" {
			return nil, fmt.Errorf("empty parameter key in %q", s)
		}
		if _, dup := p.vals[k]; dup {
			return nil, fmt.Errorf("duplicate key %q", k)
		}
		p.vals[k] = strings.TrimSpace(v)
	}
	return p, nil
}

func (p *specParams) take(key string) (string, bool) {
	v, ok := p.vals[key]
	if ok {
		delete(p.vals, key)
	}
	return v, ok
}

// fail records the first value error.
func (p *specParams) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// intKey reads an integer in [0, math.MaxInt32]; every integer key is a
// count or a size.
func (p *specParams) intKey(key string) int {
	v, ok := p.take(key)
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(v)
	switch {
	case err != nil:
		p.fail(fmt.Errorf("key %q: %q is not an integer", key, v))
	case n < 0 || n > math.MaxInt32:
		p.fail(fmt.Errorf("key %q: %d out of [0, %d]", key, n, math.MaxInt32))
	}
	return n
}

// probKey reads a probability; every number key is one.
func (p *specParams) probKey(key string) float64 {
	v, ok := p.take(key)
	if !ok {
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	switch {
	case err != nil:
		p.fail(fmt.Errorf("key %q: %q is not a number", key, v))
	case !(f >= 0 && f <= 1): // NaN fails too
		p.fail(fmt.Errorf("key %q: %v out of [0, 1]", key, f))
	}
	return f
}

func (p *specParams) boolKey(key string) bool {
	v, ok := p.take(key)
	if !ok {
		return false
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		p.fail(fmt.Errorf("key %q: %q is not a boolean", key, v))
	}
	return b
}
