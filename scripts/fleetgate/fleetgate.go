//go:build ignore

// fleetgate.go is check.sh's fleet gate: it boots a leader marketd with
// a durable store and a follower marketd replicating from it, and
// asserts the replication and scenario contracts end to end over real
// processes and real sockets. It runs over either shape of a fleet:
// single-world (no -scenarios) or a scenario matrix (-scenarios dir).
//
//   - /v1/scenarios lists every world, and each world's default flag
//     agrees with the listing's default; a matrix must hold at least two
//     worlds, one of them adversarial;
//   - /v1/table1 and /v1/prices?size=24, and every world's artifacts,
//     answer with byte- and ETag-identical bodies on both servers;
//   - bare /v1/... paths alias the default world byte-for-byte;
//   - POST /admin/rebuild on the follower answers 409;
//   - rebuilding one world (the adversarial one in a matrix) advances
//     only its generation (same bytes, same-config rebuild) while every
//     other world's generation, bytes, and ETags stay untouched;
//   - the follower catches up to the rebuilt generation and stays
//     byte-identical;
//   - both processes shut down cleanly on SIGTERM.
//
// Usage: go run scripts/fleetgate/fleetgate.go [-scenarios dir] <marketd-binary>
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

const bootTimeout = 120 * time.Second

func main() {
	scenDir := flag.String("scenarios", "", "scenario config directory to serve (empty: single world)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/fleetgate/fleetgate.go [-scenarios dir] <marketd-binary>")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *scenDir); err != nil {
		fmt.Fprintln(os.Stderr, "fleetgate:", err)
		os.Exit(1)
	}
	fmt.Println("fleetgate: fleet gate passed")
}

// daemon is one managed marketd process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	base string // http://host:port once the serving line appears
}

// startMarketd launches bin with args, echoing its output with a name
// prefix, and returns once the "serving on http://..." line appears.
func startMarketd(name, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("%s: stdout pipe: %w", name, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: start: %w", name, err)
	}
	urls := make(chan string, 1)
	go func() { // coordinated: closes urls when the pipe drains
		defer close(urls)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Printf("[%s] %s\n", name, line)
			if _, addr, ok := strings.Cut(line, "serving on http://"); ok {
				select {
				case urls <- "http://" + strings.TrimSpace(addr):
				default:
				}
			}
		}
	}()
	select {
	case base, ok := <-urls:
		if !ok {
			err := cmd.Wait()
			return nil, fmt.Errorf("%s: exited before serving: %w", name, err)
		}
		return &daemon{name: name, cmd: cmd, base: base}, nil
	case <-time.After(bootTimeout):
		cmd.Process.Kill()
		return nil, fmt.Errorf("%s: no serving line within %v", name, bootTimeout)
	}
}

// stop shuts the daemon down with SIGTERM and waits for a clean exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
		return fmt.Errorf("%s: signal: %w", d.name, err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s: exit: %w", d.name, err)
		}
		return nil
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		return fmt.Errorf("%s: did not exit on SIGTERM", d.name)
	}
}

func fetch(base, path string) (int, []byte, string, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return 0, nil, "", fmt.Errorf("GET %s%s: %w", base, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, "", fmt.Errorf("GET %s%s: read: %w", base, path, err)
	}
	return resp.StatusCode, body, resp.Header.Get("ETag"), nil
}

// sameOnBoth requires path to answer 200 on leader and follower with
// byte- and ETag-identical bodies, and returns the leader's answer.
func sameOnBoth(leader, follower *daemon, path string) ([]byte, string, error) {
	lcode, lbody, letag, err := fetch(leader.base, path)
	if err != nil {
		return nil, "", err
	}
	fcode, fbody, fetag, err := fetch(follower.base, path)
	if err != nil {
		return nil, "", err
	}
	if lcode != http.StatusOK || fcode != http.StatusOK {
		return nil, "", fmt.Errorf("%s: leader %d, follower %d, want 200/200", path, lcode, fcode)
	}
	if !bytes.Equal(lbody, fbody) {
		return nil, "", fmt.Errorf("%s: follower body differs from leader (%d vs %d bytes)", path, len(fbody), len(lbody))
	}
	if letag == "" || letag != fetag {
		return nil, "", fmt.Errorf("%s: ETags differ: leader %q, follower %q", path, letag, fetag)
	}
	return lbody, letag, nil
}

// listing is the subset of GET /v1/scenarios the gate asserts on.
type listing struct {
	Default   string `json:"default"`
	Scenarios []struct {
		Name        string `json:"name"`
		Default     bool   `json:"default"`
		Adversarial bool   `json:"adversarial"`
		Gen         uint64 `json:"gen"`
	} `json:"scenarios"`
}

func fetchListing(base string) (*listing, error) {
	code, body, _, err := fetch(base, "/v1/scenarios")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/scenarios: status %d", code)
	}
	var l listing
	if err := json.Unmarshal(body, &l); err != nil {
		return nil, fmt.Errorf("GET /v1/scenarios: %w", err)
	}
	return &l, nil
}

func (l *listing) gen(name string) (uint64, bool) {
	for _, sc := range l.Scenarios {
		if sc.Name == name {
			return sc.Gen, true
		}
	}
	return 0, false
}

// artifactPaths is the per-world surface the gate compares across
// leader and follower, and across the bare alias.
var artifactPaths = []string{"/table1", "/utilization", "/rpki", "/prices"}

func run(bin, scenDir string) error {
	work, err := os.MkdirTemp("", "ipv4market-fleetgate")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	common := []string{"-lirs", "14", "-days", "40", "-admin"}
	if scenDir != "" {
		common = append(common, "-scenarios", scenDir)
	}

	leader, err := startMarketd("leader", bin, append([]string{
		"-listen", "127.0.0.1:0", "-data-dir", work + "/leader"}, common...)...)
	if err != nil {
		return err
	}
	defer leader.cmd.Process.Kill()

	// The follower prints its serving line only after every world's
	// initial sync succeeded, so reaching it proves replication happened.
	follower, err := startMarketd("follower", bin, append([]string{
		"-listen", "127.0.0.1:0", "-data-dir", work + "/follower",
		"-follow", leader.base, "-poll-interval", "250ms"}, common...)...)
	if err != nil {
		return err
	}
	defer follower.cmd.Process.Kill()

	l, err := fetchListing(leader.base)
	if err != nil {
		return err
	}
	target := l.Default
	adversarial := ""
	for _, sc := range l.Scenarios {
		if sc.Default != (sc.Name == l.Default) {
			return fmt.Errorf("world %q default flag disagrees with listing default %q", sc.Name, l.Default)
		}
		if sc.Adversarial && adversarial == "" {
			adversarial = sc.Name
		}
	}
	if scenDir != "" {
		if len(l.Scenarios) < 2 {
			return fmt.Errorf("/v1/scenarios lists %d world(s), want >= 2", len(l.Scenarios))
		}
		if adversarial == "" {
			return fmt.Errorf("no adversarial world in the matrix; the gate requires one")
		}
		target = adversarial
	}
	fmt.Printf("fleetgate: %d world(s), default %q, rebuild target %q\n", len(l.Scenarios), l.Default, target)

	// Every world's artifacts, and the bare single-world surface, are
	// byte- and ETag-identical on leader and follower.
	for _, path := range []string{"/v1/table1", "/v1/prices?size=24"} {
		body, etag, err := sameOnBoth(leader, follower, path)
		if err != nil {
			return err
		}
		fmt.Printf("fleetgate: %-22s identical (%d bytes, ETag %s)\n", path, len(body), etag)
	}
	for _, sc := range l.Scenarios {
		for _, p := range artifactPaths {
			if _, _, err := sameOnBoth(leader, follower, "/v1/"+sc.Name+p); err != nil {
				return err
			}
		}
		fmt.Printf("fleetgate: %-12s leader/follower identical across %d artifacts\n", sc.Name, len(artifactPaths))
	}

	// Bare /v1/... aliases the default world byte-for-byte.
	for _, p := range artifactPaths {
		_, bare, bareETag, err := fetch(leader.base, "/v1"+p)
		if err != nil {
			return err
		}
		_, pref, prefETag, err := fetch(leader.base, "/v1/"+l.Default+p)
		if err != nil {
			return err
		}
		if !bytes.Equal(bare, pref) || bareETag != prefETag {
			return fmt.Errorf("/v1%s: bare path differs from default world /v1/%s%s", p, l.Default, p)
		}
	}
	fmt.Printf("fleetgate: bare /v1 paths alias default world %q\n", l.Default)

	resp, err := http.Post(follower.base+"/admin/rebuild", "", nil)
	if err != nil {
		return fmt.Errorf("follower rebuild probe: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("follower POST /admin/rebuild: status %d, want 409", resp.StatusCode)
	}
	fmt.Println("fleetgate: follower refused /admin/rebuild with 409")

	// Isolation: rebuild only the target and require every other world's
	// bytes, ETag, and generation to be untouched while the target's
	// generation advances (same config, same bytes).
	type ident struct {
		gen  uint64
		body []byte
		etag string
	}
	before := make(map[string]ident, len(l.Scenarios))
	for _, sc := range l.Scenarios {
		_, body, etag, err := fetch(leader.base, "/v1/"+sc.Name+"/utilization")
		if err != nil {
			return err
		}
		before[sc.Name] = ident{sc.Gen, body, etag}
	}
	resp, err = http.Post(leader.base+"/v1/"+target+"/admin/rebuild", "", nil)
	if err != nil {
		return fmt.Errorf("rebuild %s: %w", target, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /v1/%s/admin/rebuild: status %d, want 202", target, resp.StatusCode)
	}
	newGen, err := waitGen(leader.base, target, before[target].gen)
	if err != nil {
		return err
	}
	l2, err := fetchListing(leader.base)
	if err != nil {
		return err
	}
	for name, was := range before {
		_, body, etag, err := fetch(leader.base, "/v1/"+name+"/utilization")
		if err != nil {
			return err
		}
		if !bytes.Equal(body, was.body) || etag != was.etag {
			return fmt.Errorf("%s bytes or ETag changed across a same-config rebuild of %s", name, target)
		}
		if g, _ := l2.gen(name); name != target && g != was.gen {
			return fmt.Errorf("%s generation moved %d -> %d on a %s rebuild", name, was.gen, g, target)
		}
	}
	fmt.Printf("fleetgate: rebuilt %s (gen %d -> %d); %d other world(s) untouched\n",
		target, before[target].gen, newGen, len(before)-1)

	// The follower catches up to the rebuilt generation and stays
	// byte-identical.
	if _, err := waitGen(follower.base, target, newGen-1); err != nil {
		return fmt.Errorf("follower catch-up: %w", err)
	}
	_, fbody, fetag, err := fetch(follower.base, "/v1/"+target+"/utilization")
	if err != nil {
		return err
	}
	if !bytes.Equal(fbody, before[target].body) || fetag != before[target].etag {
		return fmt.Errorf("follower %s diverged after catching up to gen %d", target, newGen)
	}
	fmt.Printf("fleetgate: follower caught up to %s gen %d, still identical\n", target, newGen)

	if err := follower.stop(); err != nil {
		return err
	}
	return leader.stop()
}

// waitGen polls base's listing until name's generation exceeds past,
// returning the new generation.
func waitGen(base, name string, past uint64) (uint64, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		l, err := fetchListing(base)
		if err != nil {
			return 0, err
		}
		if g, ok := l.gen(name); ok && g > past {
			return g, nil
		}
		time.Sleep(200 * time.Millisecond)
	}
	return 0, fmt.Errorf("%s: generation did not advance past %d within 60s", name, past)
}
