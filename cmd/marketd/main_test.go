package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

var smallWorld = []string{"-lirs", "14", "-days", "40"}

func TestSelfcheckPasses(t *testing.T) {
	var buf bytes.Buffer
	args := append([]string{"-selfcheck"}, smallWorld...)
	if err := run(&buf, args); err != nil {
		t.Fatalf("selfcheck failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "selfcheck passed") {
		t.Errorf("output lacks pass marker:\n%s", out)
	}
	for _, path := range selfcheckPaths {
		if !strings.Contains(out, path+" ") && !strings.Contains(out, path+"\n") {
			t.Errorf("selfcheck did not report %s", path)
		}
	}
}

// TestSelfcheckWithDataDir drives the durable selfcheck: persist,
// shut down, warm-start over the same directory, verify continuity.
func TestSelfcheckWithDataDir(t *testing.T) {
	var buf bytes.Buffer
	dir := t.TempDir()
	args := append([]string{"-selfcheck", "-data-dir", dir}, smallWorld...)
	if err := run(&buf, args); err != nil {
		t.Fatalf("durable selfcheck failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, marker := range []string{
		"/v1/history",
		"?gen=1",
		"selfcheck restart",
		"ETag continuity",
		"restart continuity",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("durable selfcheck output lacks %q:\n%s", marker, out)
		}
	}

	// A second run over the same directory must warm-start (the store
	// already holds generation 1) and still pass end to end.
	buf.Reset()
	if err := run(&buf, args); err != nil {
		t.Fatalf("selfcheck over existing store failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "warm start: restored generation") {
		t.Errorf("second run did not warm-start:\n%s", buf.String())
	}
}

// TestFollowerFlagValidation pins the follower-mode flag contract:
// -follow needs a local store, and -selfcheck targets leaders only.
func TestFollowerFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-follow", "http://127.0.0.1:1"}); err == nil ||
		!strings.Contains(err.Error(), "-follow requires -data-dir") {
		t.Errorf("-follow without -data-dir: err = %v", err)
	}
	if err := run(&buf, []string{"-follow", "http://127.0.0.1:1", "-data-dir", t.TempDir(), "-selfcheck"}); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-follow with -selfcheck: err = %v", err)
	}
}

// TestSelfcheckVerifiesSegments asserts the durable selfcheck includes
// the store Verify pass and the replication listing.
func TestSelfcheckVerifiesSegments(t *testing.T) {
	var buf bytes.Buffer
	args := append([]string{"-selfcheck", "-data-dir", t.TempDir()}, smallWorld...)
	if err := run(&buf, args); err != nil {
		t.Fatalf("durable selfcheck failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, marker := range []string{
		"selfcheck verify: 1 segment(s) re-checksummed clean",
		"/v1/replication/generations",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("selfcheck output lacks %q:\n%s", marker, out)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-nosuchflag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestBadListenAddress(t *testing.T) {
	var buf bytes.Buffer
	args := append([]string{"-listen", "256.0.0.1:http"}, smallWorld...)
	if err := run(&buf, args); err == nil {
		t.Error("invalid listen address accepted")
	}
}

// TestParseMaxLag pins the -max-lag grammar: empty disables both
// bounds, an integer bounds generations, a duration bounds staleness.
func TestParseMaxLag(t *testing.T) {
	gens, age, err := parseMaxLag("")
	if err != nil || gens != -1 || age != 0 {
		t.Errorf("empty: (%d, %v, %v), want (-1, 0, nil)", gens, age, err)
	}
	gens, age, err = parseMaxLag("2")
	if err != nil || gens != 2 || age != 0 {
		t.Errorf("\"2\": (%d, %v, %v), want (2, 0, nil)", gens, age, err)
	}
	gens, age, err = parseMaxLag("30s")
	if err != nil || gens != -1 || age != 30*time.Second {
		t.Errorf("\"30s\": (%d, %v, %v), want (-1, 30s, nil)", gens, age, err)
	}
	for _, bad := range []string{"-1", "-5s", "0s", "soon"} {
		if _, _, err := parseMaxLag(bad); err == nil {
			t.Errorf("parseMaxLag(%q) accepted", bad)
		}
	}
}

// TestMaxLagRequiresFollower keeps -max-lag a follower-only flag.
func TestMaxLagRequiresFollower(t *testing.T) {
	var buf bytes.Buffer
	args := append([]string{"-max-lag", "2", "-selfcheck"}, smallWorld...)
	if err := run(&buf, args); err == nil {
		t.Error("-max-lag without -follow accepted")
	} else if !strings.Contains(err.Error(), "-max-lag") {
		t.Errorf("error %v does not name the flag", err)
	}
}

// TestSelfcheckScenariosWithDataDir drives the matrix selfcheck with a
// store: every world's surface and ?gen= pins, then the restart phase
// applied to every world.
func TestSelfcheckScenariosWithDataDir(t *testing.T) {
	var buf bytes.Buffer
	args := append([]string{"-selfcheck", "-scenarios", "../../examples/scenarios", "-data-dir", t.TempDir()}, smallWorld...)
	if err := run(&buf, args); err != nil {
		t.Fatalf("matrix selfcheck failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, marker := range []string{
		"/v1/baseline/utilization?gen=1",
		"/v1/churnstorm/utilization?gen=1",
		"selfcheck verify: 2 segment(s) re-checksummed clean",
		"/v1/baseline/table1 If-None-Match",
		"/v1/churnstorm/table1 If-None-Match",
		"/v1/churnstorm/v1/replication/generations",
		"/v1/churnstorm/history",
		"selfcheck passed (2 world(s)",
		"restart continuity",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("matrix selfcheck output lacks %q:\n%s", marker, out)
		}
	}
}
