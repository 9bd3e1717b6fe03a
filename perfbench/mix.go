package main

import (
	"fmt"
	"math/rand"
)

// Endpoint is one entry of the frozen request mix. Static endpoints
// serve a pre-encoded artifact whose bytes are checked against the
// golden reference; the others are computed or cached per query.
type Endpoint struct {
	Name   string
	Weight int
	Static bool
	// Path draws one request path (with query string) from rng.
	Path func(rng *rand.Rand) string
}

// Request is one scheduled request: which endpoint it exercises and the
// concrete path, relative to a target's /v1 prefix ("/table1").
type Request struct {
	Endpoint int
	Path     string
}

// Mix is the benchmark's own frozen copy of the 15-endpoint /v1 read mix
// and weights (the weights sum to 100). It is kept here, not imported,
// so that a change to the program's load generator cannot change what
// this benchmark sends.
var Mix = []Endpoint{
	{Name: "table1", Weight: 8, Static: true, Path: constPath("/table1")},
	{Name: "table1_csv", Weight: 5, Static: true, Path: constPath("/table1?format=csv")},
	{Name: "figures", Weight: 8, Static: true, Path: func(rng *rand.Rand) string {
		return fmt.Sprintf("/figures/%d", 1+rng.Intn(4))
	}},
	{Name: "prices_full", Weight: 12, Static: true, Path: constPath("/prices")},
	{Name: "prices_filtered", Weight: 13, Path: func(rng *rand.Rand) string {
		size := mixSizes[rng.Intn(len(mixSizes))]
		if rng.Intn(2) == 0 {
			return "/prices?size=" + size
		}
		return "/prices?size=" + size + "&region=" + mixRegions[rng.Intn(len(mixRegions))]
	}},
	{Name: "transfers", Weight: 7, Static: true, Path: constPath("/transfers")},
	{Name: "delegations", Weight: 5, Static: true, Path: constPath("/delegations")},
	{Name: "delegations_lookup", Weight: 10, Path: func(rng *rand.Rand) string {
		octet := func() int { return rng.Intn(224) }
		switch 8 * (1 + rng.Intn(3)) {
		case 8:
			return fmt.Sprintf("/delegations?prefix=%d.0.0.0/8", octet())
		case 16:
			return fmt.Sprintf("/delegations?prefix=%d.%d.0.0/16", octet(), rng.Intn(256))
		default:
			return fmt.Sprintf("/delegations?prefix=%d.%d.%d.0/24", octet(), rng.Intn(256), rng.Intn(256))
		}
	}},
	{Name: "leasing", Weight: 5, Static: true, Path: constPath("/leasing")},
	{Name: "headline", Weight: 5, Static: true, Path: constPath("/headline")},
	{Name: "utilization", Weight: 4, Static: true, Path: constPath("/utilization")},
	{Name: "rpki", Weight: 3, Static: true, Path: constPath("/rpki")},
	{Name: "asof_point", Weight: 8, Path: func(rng *rand.Rand) string {
		return "/asof?date=" + MixDate(rng) + "&prefix=" + MixPrefix(rng)
	}},
	{Name: "asof_timeline", Weight: 4, Path: func(rng *rand.Rand) string {
		return "/asof/timeline?prefix=" + MixPrefix(rng)
	}},
	{Name: "asof_diff", Weight: 3, Path: func(rng *rand.Rand) string {
		y, m, d := 2006+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(28)
		return fmt.Sprintf("/asof/diff?from=%04d-%02d-%02d&to=%04d-%02d-%02d",
			y, m, d, y+1, 1+rng.Intn(12), 1+rng.Intn(28))
	}},
}

// StaticPaths lists every static artifact path the golden file pins:
// each static mix path plus the CSV encodings of the tabular artifacts.
var StaticPaths = []string{
	"/table1", "/table1?format=csv",
	"/figures/1", "/figures/2", "/figures/3", "/figures/4",
	"/figures/1?format=csv", "/figures/2?format=csv", "/figures/3?format=csv", "/figures/4?format=csv",
	"/prices", "/prices?format=csv",
	"/transfers", "/delegations", "/leasing", "/headline",
	"/utilization", "/utilization?format=csv",
	"/rpki", "/rpki?format=csv",
}

var (
	mixSizes   = []string{"/8", "/16", "/24"}
	mixRegions = []string{"ARIN", "RIPE", "APNIC", "LACNIC", "AFRINIC"}
)

func constPath(p string) func(*rand.Rand) string {
	return func(*rand.Rand) string { return p }
}

// MixDate draws a date inside the served epoch [2005-01-01, 2020-07-01).
func MixDate(rng *rand.Rand) string {
	return fmt.Sprintf("%04d-%02d-%02d", 2005+rng.Intn(15), 1+rng.Intn(12), 1+rng.Intn(28))
}

// MixPrefix draws a /8–/24 unicast prefix.
func MixPrefix(rng *rand.Rand) string {
	octet := 1 + rng.Intn(223)
	switch 8 * (1 + rng.Intn(3)) {
	case 8:
		return fmt.Sprintf("%d.0.0.0/8", octet)
	case 16:
		return fmt.Sprintf("%d.%d.0.0/16", octet, rng.Intn(256))
	default:
		return fmt.Sprintf("%d.%d.%d.0/24", octet, rng.Intn(256), rng.Intn(256))
	}
}

// endpointIndex is the index of the named endpoint in Mix.
func endpointIndex(name string) int {
	for i, e := range Mix {
		if e.Name == name {
			return i
		}
	}
	panic("perfbench: no mix endpoint " + name)
}

// SampleRequests draws n requests from the mix with a generator seeded
// by seed. The same seed always yields the same sequence.
func SampleRequests(seed int64, n int) []Request {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, e := range Mix {
		total += e.Weight
	}
	out := make([]Request, n)
	for i := range out {
		k := rng.Intn(total)
		idx := 0
		for ; k >= Mix[idx].Weight; idx++ {
			k -= Mix[idx].Weight
		}
		out[i] = Request{Endpoint: idx, Path: Mix[idx].Path(rng)}
	}
	return out
}
