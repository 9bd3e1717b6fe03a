package netblock

// Reserved and special-purpose IPv4 address space, per the IANA
// special-purpose registry and the Team Cymru bogon reference. The
// delegation pipeline removes routes for these blocks before inference.
var specialPurpose = []string{
	"0.0.0.0/8",       // "this network"
	"10.0.0.0/8",      // private (RFC 1918)
	"100.64.0.0/10",   // shared address space / CGN (RFC 6598)
	"127.0.0.0/8",     // loopback
	"169.254.0.0/16",  // link local
	"172.16.0.0/12",   // private (RFC 1918)
	"192.0.0.0/24",    // IETF protocol assignments
	"192.0.2.0/24",    // TEST-NET-1
	"192.168.0.0/16",  // private (RFC 1918)
	"198.18.0.0/15",   // benchmarking
	"198.51.100.0/24", // TEST-NET-2
	"203.0.113.0/24",  // TEST-NET-3
	"224.0.0.0/4",     // multicast
	"240.0.0.0/4",     // reserved (includes 255.255.255.255)
}

var specialSet = func() *Set {
	s := &Set{}
	for _, p := range specialPurpose {
		s.AddPrefix(MustParsePrefix(p))
	}
	return s
}()

// IsSpecialPurpose reports whether the prefix overlaps reserved or
// special-purpose address space (bogon space in routing terms).
func IsSpecialPurpose(p Prefix) bool {
	return specialSet.OverlapsPrefix(p)
}

// IsGloballyRoutable reports whether the prefix lies entirely outside
// special-purpose space.
func IsGloballyRoutable(p Prefix) bool {
	return !specialSet.OverlapsPrefix(p)
}
