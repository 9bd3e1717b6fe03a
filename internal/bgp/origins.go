package bgp

import (
	"cmp"
	"math/bits"
	"slices"

	"ipv4market/internal/netblock"
)

// OriginSurvey aggregates prefix-origin observations across the monitors
// of one or more collectors. It is the input to the delegation-inference
// pipeline: for each prefix it records which origin ASes announce it and
// how many monitors see each (prefix, origin) pair — step (i) and the raw
// material for steps (ii) and (iii) of the paper's algorithm.
//
// Monitor IDs are interned to bit indexes once, and each (prefix, origin)
// pair carries a bitmap of the monitors that saw it, so a repeated
// observation — the same monitor twice, or a duplicate route in one
// view — counts once. Sanitized routes reach it either as whole views
// (AddView, the MRT paths) or one observation at a time (Monitor,
// Observe, ObservePair, ObserveASSet — the simulator's counting pass).
type OriginSurvey struct {
	monitors map[string]int // monitor ID → bit index
	pairs    map[pairKey]int
	keys     []pairKey // pair index → (prefix, origin)
	// words is the bitmap length per pair, ⌈monitors/64⌉; pair i's
	// monitors are the set bits of seen[i*words : (i+1)*words].
	words int
	seen  []uint64
	// asSet[prefix] = true if any monitor saw the prefix originated by an
	// AS_SET (such prefixes are discarded by step (iii)).
	asSet map[netblock.Prefix]bool
}

type pairKey struct {
	prefix netblock.Prefix
	origin ASN
}

// NewOriginSurvey returns an empty survey.
func NewOriginSurvey() *OriginSurvey {
	return &OriginSurvey{
		monitors: make(map[string]int),
		pairs:    make(map[pairKey]int),
		asSet:    make(map[netblock.Prefix]bool),
	}
}

// Monitor interns a monitor ID and returns its index; a repeated ID
// returns the index it was first given. The ID must be globally unique
// (e.g. "rrc00:198.51.100.7").
func (s *OriginSurvey) Monitor(id string) int {
	if m, ok := s.monitors[id]; ok {
		return m
	}
	m := len(s.monitors)
	s.monitors[id] = m
	if m/64 == s.words {
		s.widen()
	}
	return m
}

// widen adds one word to every pair's bitmap.
func (s *OriginSurvey) widen() {
	seen := make([]uint64, len(s.keys)*(s.words+1))
	for i := range s.keys {
		copy(seen[i*(s.words+1):], s.seen[i*s.words:(i+1)*s.words])
	}
	s.words++
	s.seen = seen
}

// Observe records that monitor m (an index from Monitor) saw the prefix
// originated by origin, and returns the pair's index for ObservePair.
func (s *OriginSurvey) Observe(m int, prefix netblock.Prefix, origin ASN) int {
	k := pairKey{prefix, origin}
	i, ok := s.pairs[k]
	if !ok {
		i = len(s.keys)
		s.pairs[k] = i
		s.keys = append(s.keys, k)
		s.seen = append(s.seen, make([]uint64, s.words)...)
	}
	s.ObservePair(i, m)
	return i
}

// ObservePair records that monitor m saw pair i, an index an earlier
// Observe returned: the same observation without the pair lookup.
func (s *OriginSurvey) ObservePair(i, m int) {
	s.seen[i*s.words+m/64] |= 1 << (m % 64)
}

// ObserveASSet records that some monitor saw the prefix originated by an
// AS_SET.
func (s *OriginSurvey) ObserveASSet(prefix netblock.Prefix) { s.asSet[prefix] = true }

// AddView records one monitor's sanitized routes.
func (s *OriginSurvey) AddView(monitorID string, routes []Route) {
	m := s.Monitor(monitorID)
	for _, r := range routes {
		if r.Path.EndsInSet() {
			s.ObserveASSet(r.Prefix)
			continue
		}
		if origin, ok := r.OriginAS(); ok {
			s.Observe(m, r.Prefix, origin)
		}
	}
}

// NumMonitors returns the number of monitors contributing to the survey.
func (s *OriginSurvey) NumMonitors() int { return len(s.monitors) }

// PrefixOrigin is one observed (prefix, origin) pair with its visibility.
type PrefixOrigin struct {
	Prefix   netblock.Prefix
	Origin   ASN
	Monitors int  // monitors seeing this pair
	MOAS     bool // prefix also originated by other ASes
	ASSet    bool // prefix originated via AS_SET at some monitor
}

// Visibility returns the fraction of all monitors seeing the pair.
func (po PrefixOrigin) Visibility(totalMonitors int) float64 {
	if totalMonitors == 0 {
		return 0
	}
	return float64(po.Monitors) / float64(totalMonitors)
}

// Pairs returns every (prefix, origin) pair with its monitor count and
// MOAS/AS_SET flags, sorted by prefix then origin.
func (s *OriginSurvey) Pairs() []PrefixOrigin {
	out := make([]PrefixOrigin, len(s.keys))
	for i, k := range s.keys {
		n := 0
		for _, w := range s.seen[i*s.words : (i+1)*s.words] {
			n += bits.OnesCount64(w)
		}
		out[i] = PrefixOrigin{Prefix: k.prefix, Origin: k.origin, Monitors: n, ASSet: s.asSet[k.prefix]}
	}
	slices.SortFunc(out, func(a, b PrefixOrigin) int {
		if c := a.Prefix.Compare(b.Prefix); c != 0 {
			return c
		}
		return cmp.Compare(a.Origin, b.Origin)
	})
	// A prefix is MOAS when its run of pairs is longer than one.
	for i := range out {
		out[i].MOAS = i > 0 && out[i-1].Prefix == out[i].Prefix ||
			i+1 < len(out) && out[i+1].Prefix == out[i].Prefix
	}
	return out
}

// CleanPairs applies steps (ii) and (iii) of the inference algorithm:
// it keeps pairs seen by at least minVisibility of all monitors (the paper
// uses 0.5) and drops prefixes originated by AS_SETs or multiple ASes.
// The result maps each surviving prefix to its unique origin.
func (s *OriginSurvey) CleanPairs(minVisibility float64) map[netblock.Prefix]ASN {
	total := s.NumMonitors()
	out := make(map[netblock.Prefix]ASN)
	for _, po := range s.Pairs() {
		if po.ASSet || po.MOAS {
			continue
		}
		if total > 0 && po.Visibility(total) >= minVisibility {
			out[po.Prefix] = po.Origin
		}
	}
	return out
}

// RawPairs returns the step-(i) view with no filtering: each prefix maps
// to every origin that announced it anywhere. Prefixes announced via
// AS_SET are excluded (they carry no usable origin). This is the input
// the baseline Krenc-Feldmann algorithm consumes.
func (s *OriginSurvey) RawPairs() map[netblock.Prefix][]ASN {
	out := make(map[netblock.Prefix][]ASN, len(s.keys))
	for _, po := range s.Pairs() {
		out[po.Prefix] = append(out[po.Prefix], po.Origin)
	}
	return out
}
