package simulation

import (
	"fmt"
	"math/rand"

	"ipv4market/internal/bgp"
	"ipv4market/internal/netblock"
)

// RoutingSim synthesizes the daily view of the global routing system as
// seen from a set of collectors: owner announcements of allocations,
// leased more-specifics with on-off patterns, plus the noise the paper's
// extended algorithm must suppress — low-visibility more-specific
// hijacks, MOAS, and AS_SET aggregates. Each day's view is generated
// deterministically and independently from the world seed.
type RoutingSim struct {
	w *World

	collectors []collectorSpec
	// announced allocations: every (allocation, origin AS) pair visible
	// in steady state.
	anns []announcement
	// moasLeases adds a second origin to a few leased children.
	moasLeases map[*Lease]ASN
	// asSetAggs are prefixes announced with AS_SET termination.
	asSetAggs []announcement
	// scrubEvents are DDoS-scrubbing episodes: the scrubber announces a
	// victim's more-specific at full visibility for a few days. §4 lists
	// these as an unavoidable false-positive source for the inference.
	scrubEvents []scrubEvent
	// transit maps each origin AS to its upstream.
	transit map[ASN]ASN
	// monitorIDs are the survey's monitor IDs ("collector:peer IP") in
	// global monitor order.
	monitorIDs []string
}

type scrubEvent struct {
	prefix   netblock.Prefix
	scrubber ASN
	fromDay  int
	toDay    int
}

type collectorSpec struct {
	name  string
	id    netblock.Addr
	peers []bgp.PeerEntry
}

type announcement struct {
	prefix  netblock.Prefix
	origin  ASN
	asSet   []ASN // non-nil: terminate the path with this AS_SET
	transit ASN   // origin's upstream; set per day by dayRoutes
}

// collectorNames gives the simulation's collectors familiar labels.
var collectorNames = []string{"rrc00", "route-views2", "isolario"}

// NewRoutingSim prepares the daily route generator for the world.
func NewRoutingSim(w *World) *RoutingSim {
	rs := &RoutingSim{
		w:          w,
		moasLeases: make(map[*Lease]ASN),
		transit:    make(map[ASN]ASN),
	}
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ 0x5eed))

	// Collectors and monitor peers. Peer ASNs live in the public range.
	nextPeerAS := ASN(21000)
	nextPeerIP := netblock.MustParseAddr("198.51.100.1") // doc space: fine for peer IPs
	for c := 0; c < w.Cfg.Collectors; c++ {
		name := fmt.Sprintf("collector-%d", c)
		if c < len(collectorNames) {
			name = collectorNames[c]
		}
		spec := collectorSpec{name: name, id: netblock.Addr(0xC0000200 + uint32(c))}
		for m := 0; m < w.Cfg.MonitorsPerCollector; m++ {
			spec.peers = append(spec.peers, bgp.PeerEntry{
				BGPID: nextPeerIP, IP: nextPeerIP, AS: nextPeerAS,
			})
			rs.monitorIDs = append(rs.monitorIDs, fmt.Sprintf("%s:%s", name, nextPeerIP))
			nextPeerAS++
			nextPeerIP++
		}
		rs.collectors = append(rs.collectors, spec)
	}

	// Transit providers: a small pool of tier-1-ish ASNs.
	tier1 := []ASN{1299, 3356, 174, 3320, 2914, 6453}
	transitOf := func(a ASN) ASN {
		t := tier1[int(uint32(a))%len(tier1)]
		if t == a {
			t = tier1[(int(uint32(a))+1)%len(tier1)]
		}
		return t
	}

	// Owner announcements: nearly all allocations are announced by the
	// holder's primary AS; a few stay dark (unrouted address space).
	for _, a := range w.Registry.Allocations() {
		org := w.ByID[a.Org]
		if org == nil {
			continue
		}
		dark := rng.Float64() < 0.08 && org.Kind != KindISP && org.Kind != KindHoster
		if dark {
			continue
		}
		origin := org.PrimaryAS()
		rs.anns = append(rs.anns, announcement{prefix: a.Prefix, origin: origin})
		rs.transit[origin] = transitOf(origin)
	}
	for _, l := range w.Leases {
		rs.transit[l.Customer.PrimaryAS()] = transitOf(l.Customer.PrimaryAS())
	}

	// MOAS noise: a handful of routed leases gain a second origin
	// (multihoming look-alikes the extended algorithm discards).
	routed := w.RoutedLeases()
	for i := 0; i < len(routed)/25; i++ {
		l := routed[rng.Intn(len(routed))]
		other := w.Orgs[rng.Intn(len(w.Orgs))]
		if other != l.Customer {
			rs.moasLeases[l] = other.PrimaryAS()
		}
	}

	// Scrubbing episodes: roughly one active per ~150 days of window.
	scrubbers := []ASN{32787, 19905, 200020} // Prolexic/Neustar-style ASNs
	nEvents := w.Cfg.RoutingDays/150 + 1
	for i := 0; i < nEvents && len(rs.anns) > 0; i++ {
		victim := rs.anns[rng.Intn(len(rs.anns))]
		if victim.prefix.Bits() >= 24 {
			continue
		}
		off := netblock.Addr(rng.Int63n(1 << uint(24-victim.prefix.Bits())))
		child := netblock.MustPrefix(victim.prefix.Addr()+off<<8, 24)
		from := rng.Intn(w.Cfg.RoutingDays)
		sc := scrubbers[rng.Intn(len(scrubbers))]
		rs.scrubEvents = append(rs.scrubEvents, scrubEvent{
			prefix: child, scrubber: sc, fromDay: from, toDay: from + 3 + rng.Intn(8),
		})
		rs.transit[sc] = transitOf(sc)
	}

	// AS_SET aggregates: a few prefixes whose path ends in a set.
	for i := 0; i < 3 && i < len(rs.anns); i++ {
		base := rs.anns[rng.Intn(len(rs.anns))]
		children, err := base.prefix.Split(minInt(base.prefix.Bits()+2, 30))
		if err != nil || len(children) == 0 {
			continue
		}
		rs.asSetAggs = append(rs.asSetAggs, announcement{
			prefix: children[0],
			origin: base.origin,
			asSet:  []ASN{base.origin, ASN(10000 + rng.Intn(500))},
		})
	}
	return rs
}

// NumMonitors returns the total monitor count across collectors.
func (rs *RoutingSim) NumMonitors() int {
	n := 0
	for _, c := range rs.collectors {
		n += len(c.peers)
	}
	return n
}

// RoutedLeases returns the leases that announce their child prefix.
func (w *World) RoutedLeases() []*Lease {
	var out []*Lease
	for _, l := range w.Leases {
		if l.Routed {
			out = append(out, l)
		}
	}
	return out
}

// dayRNG returns the deterministic per-day random source used for the
// day's shared events (hijacks and their observer assignment).
func (rs *RoutingSim) dayRNG(day int) *rand.Rand {
	return rand.New(rand.NewSource(rs.w.Cfg.Seed*1_000_003 + int64(day)))
}

// visRNG returns the per-(day, collector) source used for per-monitor
// visibility sampling, so that SurveyAt and CollectorAt see identical
// views.
func (rs *RoutingSim) visRNG(day, collector int) *rand.Rand {
	return rand.New(rand.NewSource(rs.w.Cfg.Seed*7_368_787 + int64(day)*131 + int64(collector)))
}

// dayEvents computes the day's shared state: active announcements,
// hijacks, and which global monitor indexes observe each hijack.
func (rs *RoutingSim) dayEvents(day int) (anns, hijacks []announcement, hijackMonitors [][]int) {
	rng := rs.dayRNG(day)
	anns = rs.activeAnnouncements(day)
	hijacks = rs.hijacks(rng, day)
	total := rs.NumMonitors()
	hijackMonitors = make([][]int, len(hijacks))
	for i := range hijacks {
		m1 := rng.Intn(total)
		hijackMonitors[i] = []int{m1}
		if rng.Float64() < 0.5 {
			hijackMonitors[i] = append(hijackMonitors[i], (m1+1)%total)
		}
	}
	return anns, hijacks, hijackMonitors
}

// activeAnnouncements returns all (prefix, origin, asSet) announcements
// that exist on the day, before per-monitor visibility sampling.
func (rs *RoutingSim) activeAnnouncements(day int) []announcement {
	out := make([]announcement, 0, len(rs.anns)+len(rs.w.Leases)/2+8)
	out = append(out, rs.anns...)
	for _, l := range rs.w.Leases {
		if !l.AnnouncedOn(day) {
			continue
		}
		out = append(out, announcement{prefix: l.Child, origin: l.Customer.PrimaryAS()})
		if second, ok := rs.moasLeases[l]; ok {
			out = append(out, announcement{prefix: l.Child, origin: second})
		}
	}
	for _, ev := range rs.scrubEvents {
		if day >= ev.fromDay && day < ev.toDay {
			out = append(out, announcement{prefix: ev.prefix, origin: ev.scrubber})
		}
	}
	out = append(out, rs.asSetAggs...)
	return out
}

// ScrubbedPrefixesOn returns the prefixes announced by scrubbing services
// on the day — ground truth for the false positives §4's limitations
// paragraph concedes the algorithm cannot avoid.
func (rs *RoutingSim) ScrubbedPrefixesOn(day int) []netblock.Prefix {
	var out []netblock.Prefix
	for _, ev := range rs.scrubEvents {
		if day >= ev.fromDay && day < ev.toDay {
			out = append(out, ev.prefix)
		}
	}
	return out
}

// hijacks draws the day's short-lived more-specific hijacks; each is
// visible at only one or two monitors (locally spread, as §4 puts it).
// The expected count is the baseline HijackRate, or the rate of a
// hijack wave covering the day.
func (rs *RoutingSim) hijacks(rng *rand.Rand, day int) []announcement {
	n := poisson(rng, rs.w.Cfg.hijackRateOn(day))
	var out []announcement
	for i := 0; i < n && len(rs.anns) > 0; i++ {
		victim := rs.anns[rng.Intn(len(rs.anns))]
		if victim.prefix.Bits() >= 24 {
			continue
		}
		// A random /24 inside the victim block.
		off := netblock.Addr(rng.Int63n(1 << uint(24-victim.prefix.Bits())))
		child := netblock.MustPrefix(victim.prefix.Addr()+off<<8, 24)
		attacker := rs.w.Orgs[rng.Intn(len(rs.w.Orgs))].PrimaryAS()
		if attacker == victim.origin {
			continue
		}
		out = append(out, announcement{prefix: child, origin: attacker})
	}
	return out
}

// SurveyAt counts the day's origin survey across all monitors in one flat
// pass: per monitor it picks the one best route per prefix (dayRoutes.best,
// the selection CollectorAt's RIBs also hold), keeps the routes bgp.Clean
// passes — the offline pipeline's sanitization — and sets the monitor's
// bit on each surviving (prefix, origin) pair. No per-monitor RIB is
// built. Legitimate routes are seen by each monitor with ~97%
// probability; hijacks at only 1-2 monitors.
//
// SurveyAt is a pure derivation: every random draw comes from RNGs
// seeded deterministically per (day, collector), and the receiver is not
// mutated. Concurrent calls for different days are therefore safe and
// order-independent — the per-date inference fan-out in core.Figure6
// relies on this contract.
func (rs *RoutingSim) SurveyAt(day int) *bgp.OriginSurvey {
	d := rs.dayRoutes(day)
	survey := bgp.NewOriginSurvey()
	for _, id := range rs.monitorIDs {
		survey.Monitor(id)
	}
	// pairOf[c] is candidate c's pair index in the survey, -1 until a
	// monitor first keeps it.
	pairOf := make([]int32, len(d.cands))
	for i := range pairOf {
		pairOf[i] = -1
	}
	var buf pathBuf
	monIdx := 0 // also the survey's index for the monitor: interned in this order
	for ci, spec := range rs.collectors {
		rng := rs.visRNG(day, ci)
		for _, peer := range spec.peers {
			for _, c := range d.best(rng, monIdx) {
				a := &d.cands[c]
				if !bgp.Clean(a.route(peer.AS, &buf)) {
					continue
				}
				switch {
				case a.asSet != nil:
					survey.ObserveASSet(a.prefix)
				case pairOf[c] < 0:
					pairOf[c] = int32(survey.Observe(monIdx, a.prefix, a.origin))
				default:
					survey.ObservePair(int(pairOf[c]), monIdx)
				}
			}
			monIdx++
		}
	}
	return survey
}

// dayRoutes is one day's candidate routes — the active announcements,
// then the hijacks — indexed by the prefix slot each competes for, with
// the scratch state for picking monitors' best routes, reused monitor
// after monitor. A dayRoutes serves one goroutine.
type dayRoutes struct {
	cands          []announcement
	slot           []int32 // candidate → index of its prefix among the day's distinct prefixes
	nAnns          int
	hijackMonitors [][]int

	winner  []int32 // slot → best candidate so far, -1 when none
	touched []int32 // slots holding a winner, in first-offer order
}

func (rs *RoutingSim) dayRoutes(day int) *dayRoutes {
	anns, hijacks, hijackMonitors := rs.dayEvents(day)
	d := &dayRoutes{
		cands:          append(anns, hijacks...),
		nAnns:          len(anns),
		hijackMonitors: hijackMonitors,
	}
	d.slot = make([]int32, len(d.cands))
	slots := make(map[netblock.Prefix]int32, len(d.cands))
	for i := range d.cands {
		c := &d.cands[i]
		c.transit = rs.transitOf(c.origin)
		s, ok := slots[c.prefix]
		if !ok {
			s = int32(len(slots))
			slots[c.prefix] = s
		}
		d.slot[i] = s
	}
	d.winner = make([]int32, len(slots))
	for i := range d.winner {
		d.winner[i] = -1
	}
	d.touched = make([]int32, 0, len(slots))
	return d
}

// best returns monitor monIdx's table for the day as candidate indexes,
// one per prefix it holds: each announcement is present with ~97%
// probability (one rng draw per announcement, in order), hijacks only at
// their assigned monitors, and — as in a real per-peer RIB — at most one
// best route per prefix. Same-prefix conflicts resolve deterministically:
// a route ending in an AS_SET has no usable origin and neither displaces
// nor is displaced; otherwise even monitors prefer the lower origin AS,
// odd monitors the higher one, so the survey still observes both origins
// of a MOAS prefix across the platform. The returned slice is valid until
// the next call.
func (d *dayRoutes) best(rng *rand.Rand, monIdx int) []int32 {
	for i := 0; i < d.nAnns; i++ {
		if rng.Float64() > 0.97 {
			continue // this monitor misses the route today
		}
		d.offer(int32(i), monIdx)
	}
	for i, mons := range d.hijackMonitors {
		for _, m := range mons {
			if m == monIdx {
				d.offer(int32(d.nAnns+i), monIdx)
			}
		}
	}
	for i, s := range d.touched {
		d.touched[i] = d.winner[s]
		d.winner[s] = -1
	}
	out := d.touched
	d.touched = d.touched[:0]
	return out
}

func (d *dayRoutes) offer(c int32, monIdx int) {
	s := d.slot[c]
	cur := d.winner[s]
	if cur < 0 {
		d.winner[s] = c
		d.touched = append(d.touched, s)
		return
	}
	nw, old := &d.cands[c], &d.cands[cur]
	if nw.asSet != nil || old.asSet != nil {
		return
	}
	if (monIdx%2 == 0) == (nw.origin < old.origin) {
		d.winner[s] = c
	}
}

// transitOf returns the origin's upstream, defaulting to AS1299.
func (rs *RoutingSim) transitOf(origin ASN) ASN {
	if t := rs.transit[origin]; t != 0 {
		return t
	}
	return 1299
}

// pathBuf backs the AS path of one route, so the survey pass can check a
// route without allocating it.
type pathBuf struct {
	seq  [3]ASN
	segs [2]bgp.PathSegment
}

// route returns the route monitor peerAS holds for the announcement:
// peer, transit, origin, then the AS_SET when the announcement
// aggregates. Its path aliases buf.
func (a *announcement) route(peerAS ASN, buf *pathBuf) bgp.Route {
	buf.seq = [3]ASN{peerAS, a.transit, a.origin}
	buf.segs[0] = bgp.PathSegment{Type: bgp.SegmentSequence, ASNs: buf.seq[:]}
	path := bgp.ASPath(buf.segs[:1])
	if a.asSet != nil {
		buf.segs[1] = bgp.PathSegment{Type: bgp.SegmentSet, ASNs: a.asSet}
		path = buf.segs[:2]
	}
	return bgp.Route{
		Prefix:  a.prefix,
		Path:    path,
		Origin:  bgp.OriginIGP,
		NextHop: netblock.Addr(0xC6336401),
	}
}

// CollectorAt materializes collector idx's full state for the day — used
// to export MRT snapshots. Each peer's RIB holds exactly the routes
// SurveyAt selects for that monitor, before sanitization.
func (rs *RoutingSim) CollectorAt(day, idx int) *bgp.Collector {
	d := rs.dayRoutes(day)
	spec := rs.collectors[idx]
	c := bgp.NewCollector(spec.name, spec.id)
	// Global monitor index of this collector's first peer.
	base := 0
	for i := 0; i < idx; i++ {
		base += len(rs.collectors[i].peers)
	}
	rng := rs.visRNG(day, idx)
	var buf pathBuf
	for p, peer := range spec.peers {
		rib := c.PeerRIB(c.AddPeer(peer))
		for _, ci := range d.best(rng, base+p) {
			r := d.cands[ci].route(peer.AS, &buf)
			r.Path = r.Path.Clone()
			rib.Insert(r)
		}
	}
	return c
}

// NumCollectors returns the collector count.
func (rs *RoutingSim) NumCollectors() int { return len(rs.collectors) }

// TrueDelegationsOn returns the ground-truth set of leased child prefixes
// whose delegation is in principle observable in BGP on the day (lease
// active and routed, provider and customer in different organizations).
func (rs *RoutingSim) TrueDelegationsOn(day int) map[netblock.Prefix]ASN {
	out := make(map[netblock.Prefix]ASN)
	for _, l := range rs.w.Leases {
		if l.AnnouncedOn(day) {
			out[l.Child] = l.Customer.PrimaryAS()
		}
	}
	return out
}
