// Package temporal materializes the study's event history — delegations,
// transfers, holder changes, and quarterly price state — into an immutable,
// date-indexed temporal index, so "who held prefix P on date D" (and the
// delegation and price context around it) answers in O(log) of the event
// count instead of a replay of the event log.
//
// The index is built once from a normalized event Input by New, never
// mutated afterwards, and is byte-deterministic: the same Input always
// yields the same Record() bytes and the same query answers, regardless of
// build parallelism, map iteration order, or the machine. Restore(Record())
// reproduces the index exactly, which is what lets warm starts and
// replication followers answer /v1/asof byte-identically to the builder.
//
// Layout (see ARCHITECTURE.md §9): holding spans are grouped per prefix in
// one contiguous date-sorted slice — each prefix owns a half-open range of
// that slice, found by trie lookup and binary-searched by date (the
// interval-tree role; spans of one prefix tile time, so "last span starting
// on or before D" is the holder at D). Delegation spans are sorted by child
// prefix and partitioned into epochs: epoch boundaries are drawn from
// delegation start/end dates, a date binary-searches to its epoch, and the
// epoch owns a range of one shared id slab listing, in child order, only
// the delegations overlapping that epoch. A query binary-searches that
// range for each covering child and for the first covered one.
package temporal

import (
	"fmt"
	"sort"
	"time"

	"ipv4market/internal/netblock"
	"ipv4market/internal/registry"
	"ipv4market/internal/stats"
)

// Acquisition says how a holder came to hold a block.
type Acquisition string

// Acquisition kinds. ViaOrigin covers RIR delegation and legacy holdings
// (and the reconstructed pre-first-transfer holder, whose original
// delegation date the registry no longer carries once a transfer has
// rewritten the allocation record).
const (
	ViaOrigin Acquisition = "origin"
	ViaMarket Acquisition = "market"
	ViaMerger Acquisition = "merger"
)

// AllocationRecord is the final registry state of one block: who holds it
// now and since when. Together with the transfer chain for the same prefix
// it determines the block's whole holding history.
type AllocationRecord struct {
	Prefix netblock.Prefix
	Org    string
	RIR    registry.RIR
	Date   time.Time
	Status string
}

// TransferRecord is one completed transfer from the registry's log.
// Records for the same prefix must appear in execution order; same-day
// chains (A→B→C on one date) rely on it.
type TransferRecord struct {
	Prefix       netblock.Prefix
	From, To     string
	FromRIR      registry.RIR
	ToRIR        registry.RIR
	Type         string
	Date         time.Time
	PricePerAddr float64
}

// LeaseRecord is one delegation span observed in the routing/whois window:
// the provider block, the delegated child, and the AS pair. [Start, End) —
// a zero End means the delegation was still active at the epoch end.
type LeaseRecord struct {
	Parent netblock.Prefix
	Child  netblock.Prefix
	FromAS uint32
	ToAS   uint32
	Start  time.Time
	End    time.Time
}

// Input is the full event history the index is built from. Start/End bound
// the simulated epoch: queries are answered for dates in [Start, End).
type Input struct {
	Start       time.Time
	End         time.Time
	Allocations []AllocationRecord
	Transfers   []TransferRecord
	Leases      []LeaseRecord
}

// Span is one holding span: Org held Prefix for [Start, End). A zero End
// means the block is still held at the epoch end. Same-day transfer chains
// produce zero-length spans (Start == End), which point-in-time lookups
// skip over but timelines retain.
type Span struct {
	Prefix       netblock.Prefix
	Org          string
	RIR          registry.RIR
	Start        time.Time
	End          time.Time
	Via          Acquisition
	PricePerAddr float64
}

// ActiveOn reports whether the span covers date d.
func (s Span) ActiveOn(d time.Time) bool {
	return !d.Before(s.Start) && (s.End.IsZero() || d.Before(s.End))
}

// DelegationSpan is one delegation's lifetime: Child delegated from FromAS
// to ToAS for [Start, End) (zero End = open at the epoch end).
type DelegationSpan struct {
	Parent netblock.Prefix
	Child  netblock.Prefix
	FromAS uint32
	ToAS   uint32
	Start  time.Time
	End    time.Time
}

// ActiveOn reports whether the delegation covers date d.
func (s DelegationSpan) ActiveOn(d time.Time) bool {
	return !d.Before(s.Start) && (s.End.IsZero() || d.Before(s.End))
}

// EventKind classifies entries of the merged event stream behind Diff.
type EventKind string

// Event kinds.
const (
	EventTransfer        EventKind = "transfer"
	EventDelegationStart EventKind = "delegation_start"
	EventDelegationEnd   EventKind = "delegation_end"
)

// Event is one entry of the merged, date-sorted event stream: a transfer,
// or a delegation starting or ending. Only the fields for its kind are set.
type Event struct {
	Date   time.Time
	Kind   EventKind
	Prefix netblock.Prefix // transferred block, or delegated child

	// Transfer fields.
	From, To     string
	FromRIR      registry.RIR
	ToRIR        registry.RIR
	Type         string
	PricePerAddr float64

	// Delegation fields.
	Parent netblock.Prefix
	FromAS uint32
	ToAS   uint32
}

// QuarterPrices is the transfer-market price state of one quarter,
// aggregated over the priced (market) transfers executed in it.
type QuarterPrices struct {
	Quarter   stats.Quarter
	Transfers int     // all transfers executed in the quarter
	Priced    int     // transfers carrying a nonzero price
	Addresses uint64  // addresses moved by all transfers
	MeanPrice float64 // mean USD/addr over priced transfers; 0 if none
	MinPrice  float64
	MaxPrice  float64
}

// spanRange is a half-open index range [lo, hi) into a shared slice.
type spanRange struct{ lo, hi int32 }

// maxEpochs caps the number of delegation epochs; beyond it, epochs absorb
// multiple boundary dates and queries date-filter within the epoch. It
// bounds the id slab (a span's id is stored once per epoch it overlaps)
// while keeping per-epoch candidate lists short.
const maxEpochs = 256

// Index is the immutable as-of index. Build it with New (or Restore) and
// share it freely: all methods are safe for concurrent use.
type Index struct {
	in Input // normalized; Record marshals exactly this

	spans      []Span // grouped by prefix (Compare order), date-sorted within
	holderTrie *netblock.Trie[spanRange]

	delegs    []DelegationSpan // sorted by (child, start, end, parent, AS pair)
	delegTrie *netblock.Trie[spanRange]

	// Epoch i covers [epochStarts[i], epochStarts[i+1]); the last is open.
	// epochs[i] is its range of epochIDs: the index (into delegs) of every
	// delegation span overlapping the epoch, ascending. delegs is sorted by
	// child, so each range is in child (Compare) order too.
	epochStarts []time.Time
	epochs      []spanRange
	epochIDs    []int32

	events   []Event
	quarters []QuarterPrices
}

// New builds the index from an event history. It normalizes the input
// (sorting allocations and leases canonically, clamping lease spans to
// [Start, End), truncating dates to UTC day granularity) and then derives
// every structure deterministically from the normalized form, so equal
// histories always produce equal indexes — and equal Record() bytes.
func New(in Input) (*Index, error) {
	norm, err := normalize(in)
	if err != nil {
		return nil, err
	}
	ix := &Index{in: norm}
	if err := ix.buildSpans(); err != nil {
		return nil, err
	}
	ix.buildDelegations()
	ix.buildEvents()
	ix.buildQuarters()
	return ix, nil
}

// day truncates a timestamp to its UTC calendar day. The index is
// date-granular: every event in the study lands on a UTC midnight already,
// and queries are keyed by date.
func day(t time.Time) time.Time {
	if t.IsZero() {
		return t
	}
	y, m, d := t.UTC().Date()
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// normalize copies and canonicalizes the input so that the rest of the
// build — and Record() — see one unique representation per history.
func normalize(in Input) (Input, error) {
	out := Input{Start: day(in.Start), End: day(in.End)}
	if out.Start.IsZero() || out.End.IsZero() || !out.Start.Before(out.End) {
		return Input{}, fmt.Errorf("temporal: epoch [%s, %s) is empty", fmtDay(out.Start), fmtDay(out.End))
	}

	out.Allocations = append([]AllocationRecord(nil), in.Allocations...)
	for i := range out.Allocations {
		out.Allocations[i].Date = day(out.Allocations[i].Date)
	}
	sort.Slice(out.Allocations, func(i, j int) bool {
		return out.Allocations[i].Prefix.Compare(out.Allocations[j].Prefix) < 0
	})
	for i := 1; i < len(out.Allocations); i++ {
		if out.Allocations[i].Prefix == out.Allocations[i-1].Prefix {
			return Input{}, fmt.Errorf("temporal: duplicate allocation for %v", out.Allocations[i].Prefix)
		}
	}

	// Transfers keep their log order — it is the execution order, the
	// order the registry actually applied them in, and the only thing
	// that orders a same-day chain. The log's dates, however, are not
	// monotone along a block's chain: the generator sweeps market by
	// market, so an entry executed later can carry an earlier date (real
	// RIR transfer logs have the same wart). Each date is repaired
	// forward to the latest date of any earlier log entry covering the
	// same space, which makes every block's history date-monotone while
	// preserving the registry's final state. The repair is idempotent,
	// so Record/Restore round-trips byte-identically.
	out.Transfers = append([]TransferRecord(nil), in.Transfers...)
	latest := netblock.NewTrie[time.Time]()
	for i := range out.Transfers {
		t := &out.Transfers[i]
		t.Date = day(t.Date)
		for _, entry := range latest.Covering(t.Prefix) {
			if entry.Value.After(t.Date) {
				t.Date = entry.Value
			}
		}
		if cur, ok := latest.Get(t.Prefix); !ok || t.Date.After(cur) {
			latest.Insert(t.Prefix, t.Date)
		}
	}

	for _, l := range in.Leases {
		l.Start, l.End = day(l.Start), day(l.End)
		if !l.Start.Before(out.End) {
			continue // never visible inside the epoch
		}
		if l.Start.Before(out.Start) {
			l.Start = out.Start
		}
		if l.End.IsZero() || !l.End.Before(out.End) {
			l.End = time.Time{} // open: active through the epoch end
		}
		if !l.End.IsZero() && !l.Start.Before(l.End) {
			continue // empty after clamping
		}
		out.Leases = append(out.Leases, l)
	}
	sort.Slice(out.Leases, func(i, j int) bool {
		a, b := out.Leases[i], out.Leases[j]
		if c := a.Child.Compare(b.Child); c != 0 {
			return c < 0
		}
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if !a.End.Equal(b.End) {
			return leaseEndBefore(a.End, b.End)
		}
		if c := a.Parent.Compare(b.Parent); c != 0 {
			return c < 0
		}
		if a.FromAS != b.FromAS {
			return a.FromAS < b.FromAS
		}
		return a.ToAS < b.ToAS
	})
	return out, nil
}

// leaseEndBefore orders span end dates with the open (zero) end last.
func leaseEndBefore(a, b time.Time) bool {
	if a.IsZero() {
		return false
	}
	if b.IsZero() {
		return true
	}
	return a.Before(b)
}

// buildSpans reconstructs every block's holding history from the final
// allocation state plus the transfer chain, exactly as a replay of the
// event log would: the holder at D is the holder after applying every
// transfer dated on or before D.
//
// A block's chain is every transfer whose prefix covers it, not only exact
// matches: the registry splits an allocation when a sub-block is
// transferred away, so a block transferred whole and later split leaves a
// transfer record at the parent prefix and final allocations only at the
// pieces — each piece inherits the parent's part of the chain.
//
// The registry also rewrites an allocation in place on transfer (org, RIR
// and date all change), so for a transferred block the original delegation
// date is unrecoverable; its first span opens at the epoch start, held by
// the first transfer's sender, via "origin". Untransferred blocks keep
// their true allocation date, even when it predates the epoch (legacy
// space).
func (ix *Index) buildSpans() error {
	in := ix.in
	transferTrie := netblock.NewTrie[[]int32]()
	for i, t := range in.Transfers {
		ids, _ := transferTrie.Get(t.Prefix)
		transferTrie.Insert(t.Prefix, append(ids, int32(i)))
	}
	used := make([]bool, len(in.Transfers))

	// Allocations are sorted and unique after normalize. Each allocation
	// opens one span and each transfer usually adds one to one block.
	ix.holderTrie = netblock.NewTrie[spanRange]()
	ix.spans = make([]Span, 0, len(in.Allocations)+len(in.Transfers))
	for _, a := range in.Allocations {
		p := a.Prefix
		var chain []int32
		for _, entry := range transferTrie.Covering(p) {
			chain = append(chain, entry.Value...)
		}
		sort.Slice(chain, func(i, j int) bool { return chain[i] < chain[j] })
		for _, id := range chain {
			used[id] = true
		}
		lo := int32(len(ix.spans))
		if len(chain) == 0 {
			ix.spans = append(ix.spans, Span{
				Prefix: p, Org: a.Org, RIR: a.RIR,
				Start: a.Date, Via: ViaOrigin,
			})
		} else {
			first := in.Transfers[chain[0]]
			origin := in.Start
			if first.Date.Before(origin) {
				origin = first.Date // pre-epoch transfer: keep spans tiling
			}
			ix.spans = append(ix.spans, Span{
				Prefix: p, Org: first.From, RIR: first.FromRIR,
				Start: origin, End: first.Date, Via: ViaOrigin,
			})
			for i, ti := range chain {
				t := in.Transfers[ti]
				if i > 0 && t.Date.Before(in.Transfers[chain[i-1]].Date) {
					return fmt.Errorf("temporal: transfers of %v out of date order", p)
				}
				end := time.Time{}
				if i+1 < len(chain) {
					end = in.Transfers[chain[i+1]].Date
				}
				ix.spans = append(ix.spans, Span{
					Prefix: p, Org: t.To, RIR: t.ToRIR,
					Start: t.Date, End: end,
					Via: viaOf(t.Type), PricePerAddr: t.PricePerAddr,
				})
			}
			last := in.Transfers[chain[len(chain)-1]]
			if last.To != a.Org {
				return fmt.Errorf("temporal: %v: final holder %q does not match last transfer recipient %q",
					p, a.Org, last.To)
			}
		}
		ix.holderTrie.Insert(p, spanRange{lo, int32(len(ix.spans))})
	}
	for i, u := range used {
		if !u {
			return fmt.Errorf("temporal: transfer of %v covers no final allocation", in.Transfers[i].Prefix)
		}
	}
	return nil
}

// viaOf maps a registry transfer type to an acquisition kind.
func viaOf(typ string) Acquisition {
	if typ == string(registry.TypeMerger) {
		return ViaMerger
	}
	return ViaMarket
}

// buildDelegations materializes the delegation spans, the global child
// trie, and the per-epoch ranges of the shared id slab.
func (ix *Index) buildDelegations() {
	ix.delegTrie = netblock.NewTrie[spanRange]()
	ix.delegs = make([]DelegationSpan, 0, len(ix.in.Leases))
	for _, l := range ix.in.Leases {
		ix.delegs = append(ix.delegs, DelegationSpan{
			Parent: l.Parent, Child: l.Child,
			FromAS: l.FromAS, ToAS: l.ToAS,
			Start: l.Start, End: l.End,
		})
	}
	for lo := 0; lo < len(ix.delegs); {
		hi := lo
		for hi < len(ix.delegs) && ix.delegs[hi].Child == ix.delegs[lo].Child {
			hi++
		}
		ix.delegTrie.Insert(ix.delegs[lo].Child, spanRange{int32(lo), int32(hi)})
		lo = hi
	}

	// Epoch boundaries: every distinct delegation start/end inside the
	// epoch, thinned to at most maxEpochs partitions.
	bounds := make([]time.Time, 0, 2*len(ix.delegs))
	for _, d := range ix.delegs {
		if d.Start.After(ix.in.Start) {
			bounds = append(bounds, d.Start)
		}
		if !d.End.IsZero() {
			bounds = append(bounds, d.End)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].Before(bounds[j]) })
	dedup := bounds[:0]
	for _, b := range bounds {
		if len(dedup) == 0 || !b.Equal(dedup[len(dedup)-1]) {
			dedup = append(dedup, b)
		}
	}
	stride := 1
	if len(dedup) > maxEpochs {
		stride = (len(dedup) + maxEpochs - 1) / maxEpochs
	}
	ix.epochStarts = []time.Time{ix.in.Start}
	for i := stride - 1; i < len(dedup); i += stride {
		ix.epochStarts = append(ix.epochStarts, dedup[i])
	}

	// Two passes fill the shared id slab: count the spans overlapping each
	// epoch, prefix-sum the counts into ranges, then store each span's id
	// in every epoch it overlaps. Spans are visited in delegs order, so
	// every epoch's ids come out ascending.
	next := make([]int32, len(ix.epochStarts)+1)
	for _, d := range ix.delegs {
		lo, hi := ix.epochsOverlapping(d)
		for e := lo; e <= hi; e++ {
			next[e+1]++
		}
	}
	ix.epochs = make([]spanRange, len(ix.epochStarts))
	for e := range ix.epochs {
		next[e+1] += next[e]
		ix.epochs[e] = spanRange{next[e], next[e+1]}
	}
	ix.epochIDs = make([]int32, next[len(ix.epochs)])
	for i, d := range ix.delegs {
		lo, hi := ix.epochsOverlapping(d)
		for e := lo; e <= hi; e++ {
			ix.epochIDs[next[e]] = int32(i)
			next[e]++
		}
	}
}

// epochsOverlapping returns the first and last epoch a delegation span
// overlaps.
func (ix *Index) epochsOverlapping(d DelegationSpan) (lo, hi int) {
	lo = lastStartAtOrBefore(ix.epochStarts, d.Start, nil)
	hi = len(ix.epochStarts) - 1
	if !d.End.IsZero() {
		// The span is dead in epochs starting at or after its end.
		hi = sort.Search(len(ix.epochStarts), func(j int) bool {
			return !ix.epochStarts[j].Before(d.End)
		}) - 1
	}
	return lo, hi
}

// buildEvents merges transfers and delegation starts/ends into one
// date-sorted stream. The sort is stable over a deterministic pre-order
// (transfers in log order, then delegation starts, then ends, each in
// normalized order), so same-day events keep a reproducible order.
func (ix *Index) buildEvents() {
	ix.events = make([]Event, 0, len(ix.in.Transfers)+2*len(ix.delegs))
	for _, t := range ix.in.Transfers {
		ix.events = append(ix.events, Event{
			Date: t.Date, Kind: EventTransfer, Prefix: t.Prefix,
			From: t.From, To: t.To, FromRIR: t.FromRIR, ToRIR: t.ToRIR,
			Type: t.Type, PricePerAddr: t.PricePerAddr,
		})
	}
	for _, d := range ix.delegs {
		ix.events = append(ix.events, Event{
			Date: d.Start, Kind: EventDelegationStart, Prefix: d.Child,
			Parent: d.Parent, FromAS: d.FromAS, ToAS: d.ToAS,
		})
	}
	for _, d := range ix.delegs {
		if d.End.IsZero() {
			continue
		}
		ix.events = append(ix.events, Event{
			Date: d.End, Kind: EventDelegationEnd, Prefix: d.Child,
			Parent: d.Parent, FromAS: d.FromAS, ToAS: d.ToAS,
		})
	}
	sort.SliceStable(ix.events, func(i, j int) bool {
		return ix.events[i].Date.Before(ix.events[j].Date)
	})
}

// buildQuarters aggregates the quarterly transfer-price state. Sums are
// accumulated in transfer-log order, so the floating-point results are
// identical on every build.
func (ix *Index) buildQuarters() {
	type agg struct {
		transfers, priced int
		addrs             uint64
		sum, min, max     float64
	}
	byQuarter := make(map[stats.Quarter]*agg)
	var order []stats.Quarter
	for _, t := range ix.in.Transfers {
		q := stats.QuarterOf(t.Date)
		a := byQuarter[q]
		if a == nil {
			a = &agg{}
			byQuarter[q] = a
			order = append(order, q)
		}
		a.transfers++
		a.addrs += t.Prefix.NumAddrs()
		if t.PricePerAddr > 0 {
			if a.priced == 0 || t.PricePerAddr < a.min {
				a.min = t.PricePerAddr
			}
			if t.PricePerAddr > a.max {
				a.max = t.PricePerAddr
			}
			a.priced++
			a.sum += t.PricePerAddr
		}
	}
	stats.SortQuarters(order)
	for _, q := range order {
		a := byQuarter[q]
		qp := QuarterPrices{
			Quarter: q, Transfers: a.transfers, Priced: a.priced,
			Addresses: a.addrs, MinPrice: a.min, MaxPrice: a.max,
		}
		if a.priced > 0 {
			qp.MeanPrice = a.sum / float64(a.priced)
		}
		ix.quarters = append(ix.quarters, qp)
	}
}

// Input returns a copy of the normalized input the index was built from.
// NaiveAt over this copy is the reference the index must agree with.
func (ix *Index) Input() Input {
	out := ix.in
	out.Allocations = append([]AllocationRecord(nil), ix.in.Allocations...)
	out.Transfers = append([]TransferRecord(nil), ix.in.Transfers...)
	out.Leases = append([]LeaseRecord(nil), ix.in.Leases...)
	return out
}

// Start returns the first queryable date (inclusive).
func (ix *Index) Start() time.Time { return ix.in.Start }

// End returns the epoch end (exclusive): the first date that is NOT
// queryable.
func (ix *Index) End() time.Time { return ix.in.End }

// Contains reports whether d falls inside the queryable epoch [Start, End).
func (ix *Index) Contains(d time.Time) bool {
	d = day(d)
	return !d.Before(ix.in.Start) && d.Before(ix.in.End)
}

// EventCount returns the number of entries in the merged event stream.
func (ix *Index) EventCount() int { return len(ix.events) }

// SpanCount returns the number of holding spans.
func (ix *Index) SpanCount() int { return len(ix.spans) }

// EpochCount returns the number of delegation-epoch partitions.
func (ix *Index) EpochCount() int { return len(ix.epochs) }

// Quarters returns the quarterly price state, ascending by quarter.
func (ix *Index) Quarters() []QuarterPrices {
	return append([]QuarterPrices(nil), ix.quarters...)
}

// fmtDay renders a date as YYYY-MM-DD ("" for the zero time).
func fmtDay(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format("2006-01-02")
}
