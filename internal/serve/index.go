package serve

import (
	"sort"
	"time"

	"ipv4market/internal/delegation"
	"ipv4market/internal/netblock"
)

// DelegationIndex is an immutable per-prefix index over one day's
// inferred delegations (the extended algorithm on the final day of the
// routing window). It is built once at snapshot time; afterwards all
// methods are read-only, so the index may be shared by any number of
// concurrent request handlers.
type DelegationIndex struct {
	date  time.Time
	trie  *netblock.Trie[[]delegation.Delegation]
	total int
	addrs uint64
	hist  map[int]float64
}

// newDelegationIndex builds the trie-backed index from an inferred
// delegation list.
func newDelegationIndex(date time.Time, ds []delegation.Delegation) *DelegationIndex {
	ix := &DelegationIndex{
		date:  date,
		trie:  netblock.NewTrie[[]delegation.Delegation](),
		total: len(ds),
		addrs: delegation.DelegatedAddrs(ds),
		hist:  delegation.SizeHistogram(ds),
	}
	for _, d := range ds {
		cur, _ := ix.trie.Get(d.Child)
		ix.trie.Insert(d.Child, append(cur, d))
	}
	return ix
}

// Date returns the routing-window day the index was inferred for.
func (ix *DelegationIndex) Date() time.Time { return ix.date }

// Len returns the number of indexed delegations.
func (ix *DelegationIndex) Len() int { return ix.total }

// Addrs returns the number of distinct delegated addresses.
func (ix *DelegationIndex) Addrs() uint64 { return ix.addrs }

// Lookup describes the delegations related to one queried prefix.
type Lookup struct {
	Prefix netblock.Prefix
	// Exact are delegations whose child is precisely the queried prefix.
	Exact []delegation.Delegation
	// Covering are delegations of less-specific children containing the
	// queried prefix, ordered least- to most-specific.
	Covering []delegation.Delegation
	// Covered are delegations of strictly more-specific children inside
	// the queried prefix, in address order.
	Covered []delegation.Delegation
}

// Lookup returns every indexed delegation that exactly matches, covers,
// or is covered by p.
func (ix *DelegationIndex) Lookup(p netblock.Prefix) Lookup {
	res := Lookup{Prefix: p}
	if exact, ok := ix.trie.Get(p); ok {
		res.Exact = append(res.Exact, exact...)
	}
	for _, e := range ix.trie.Covering(p) {
		if e.Prefix == p {
			continue
		}
		res.Covering = append(res.Covering, e.Value...)
	}
	for _, e := range ix.trie.CoveredBy(p) {
		if e.Prefix == p {
			continue
		}
		res.Covered = append(res.Covered, e.Value...)
	}
	return res
}

// Walk visits every indexed delegation in child-prefix order.
func (ix *DelegationIndex) Walk(visit func(delegation.Delegation) bool) {
	ix.trie.Walk(func(_ netblock.Prefix, ds []delegation.Delegation) bool {
		for _, d := range ds {
			if !visit(d) {
				return false
			}
		}
		return true
	})
}

// sizeBits returns the histogram's prefix lengths in ascending order —
// a stable iteration order for encoding.
func (ix *DelegationIndex) sizeBits() []int {
	bits := make([]int, 0, len(ix.hist))
	for b := range ix.hist {
		bits = append(bits, b)
	}
	sort.Ints(bits)
	return bits
}
