package bgp

import "ipv4market/internal/netblock"

// Route sanitization, mirroring §4 of the paper: before inferring
// delegations, routes for private and reserved address space, routes whose
// path contains IANA-reserved ASNs, and routes with AS-path loops are
// removed.

// IsReservedASN reports whether the ASN is reserved by IANA (and therefore
// must not appear in a clean AS path): AS0, AS_TRANS, the documentation
// and private-use ranges, and the last ASN.
func IsReservedASN(a ASN) bool {
	v := uint32(a)
	switch {
	case v == 0:
		return true
	case v == 23456: // AS_TRANS
		return true
	case v >= 64496 && v <= 64511: // documentation
		return true
	case v >= 64512 && v <= 65534: // private use
		return true
	case v == 65535:
		return true
	case v >= 65536 && v <= 65551: // documentation (32-bit)
		return true
	case v >= 4200000000: // private use (32-bit) and 4294967295
		return true
	}
	return false
}

// PathHasReservedASN reports whether any segment contains a reserved ASN.
func PathHasReservedASN(p ASPath) bool {
	for _, seg := range p {
		for _, a := range seg.ASNs {
			if IsReservedASN(a) {
				return true
			}
		}
	}
	return false
}

// SanitizeReport counts what Sanitize removed.
type SanitizeReport struct {
	Input        int
	Kept         int
	SpecialSpace int // routes for private/reserved prefixes
	ReservedASN  int // routes with IANA-reserved ASNs in the path
	PathLoop     int // routes with AS-path loops
}

// violation returns the counter of the first rule the route breaks —
// address space, then reserved ASNs, then loops — or nil when it breaks
// none.
func (rep *SanitizeReport) violation(r Route) *int {
	switch {
	case netblock.IsSpecialPurpose(r.Prefix):
		return &rep.SpecialSpace
	case PathHasReservedASN(r.Path):
		return &rep.ReservedASN
	case r.Path.HasLoop():
		return &rep.PathLoop
	}
	return nil
}

// Clean reports whether the route passes every sanitization rule: the
// per-route test Sanitize applies.
func Clean(r Route) bool { return new(SanitizeReport).violation(r) == nil }

// Sanitize filters a route list per the paper's rules and reports what was
// removed. Each route is counted against the first rule it violates.
func Sanitize(routes []Route) ([]Route, SanitizeReport) {
	rep := SanitizeReport{Input: len(routes)}
	out := make([]Route, 0, len(routes))
	for _, r := range routes {
		if n := rep.violation(r); n != nil {
			*n++
			continue
		}
		out = append(out, r)
	}
	rep.Kept = len(out)
	return out, rep
}

// OriginValidator abstracts RFC 6811 route origin validation (implemented
// by rpki.Snapshot); the int result follows that package's encoding:
// 0 = not found, 1 = valid, 2 = invalid.
type OriginValidator interface {
	ValidateOrigin(prefix netblock.Prefix, origin uint32) int
}

// SanitizeWithROV applies Sanitize and then drops routes whose origin is
// RPKI-invalid — modeling monitors behind networks that filter on route
// origin validation (deployment of which "has increased significantly",
// per the works the appendix cites). Not-found routes pass unchanged.
func SanitizeWithROV(routes []Route, v OriginValidator) ([]Route, SanitizeReport, int) {
	clean, rep := Sanitize(routes)
	if v == nil {
		return clean, rep, 0
	}
	out := clean[:0]
	dropped := 0
	for _, r := range clean {
		origin, ok := r.OriginAS()
		if ok && v.ValidateOrigin(r.Prefix, uint32(origin)) == 2 {
			dropped++
			continue
		}
		out = append(out, r)
	}
	rep.Kept = len(out)
	return out, rep, dropped
}
