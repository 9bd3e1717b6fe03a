// Command marketd serves the full study — tables, figures, price cells,
// transfer statistics, delegation lookups, leasing summaries — as an
// HTTP API backed by immutable precomputed snapshots.
//
//	marketd -listen 127.0.0.1:8090 -seed 42
//
// The study runs exactly once at startup (and again on SIGHUP or
// POST /admin/rebuild when -admin is set); every request after that is
// served from the pre-encoded snapshot, so query latency is independent
// of simulation cost. Independent snapshot artifacts build concurrently;
// -buildworkers caps the fan-out (0 means NumCPU) and any value yields a
// byte-identical snapshot. See internal/serve and ARCHITECTURE.md for
// the pipeline.
//
//	GET /v1/table1            exhaustion timeline        (JSON, CSV)
//	GET /v1/figures/{1..4}    the paper's figures        (JSON, CSV)
//	GET /v1/prices            price cells, filterable    (JSON, CSV)
//	GET /v1/transfers         transfer log + stats       (JSON)
//	GET /v1/delegations       lease index, ?prefix=CIDR  (JSON)
//	GET /v1/leasing           leasing market summary     (JSON)
//	GET /v1/headline          §3 headline statistics     (JSON)
//	GET /v1/asof              point-in-time state, ?date=&prefix=  (JSON)
//	GET /v1/asof/timeline     one prefix's full history, ?prefix=  (JSON)
//	GET /v1/asof/diff         events between dates, ?from=&to=     (JSON)
//	GET /v1/history           persisted generations      (JSON, needs -data-dir)
//	GET /v1/scenarios         the worlds this process serves (JSON)
//	GET /healthz /readyz /varz
//
// marketd has one serving path: a scenario registry (internal/scenario)
// holding one world per scenario. With -scenarios dir/ every *.json spec
// in the directory (name, seed, scale, adversarial knobs — price shocks,
// RPKI churn storms, hijack waves, a utilization profile) becomes an
// isolated world served under /v1/{scenario}/... with the full artifact
// and asof surface, persisted under -data-dir/{scenario} with its own
// generation ratchet; -seed conflicts with -scenarios (seeds come from
// the specs). Without -scenarios the registry holds one implicit world,
// "default", built from the flags; it persists at the -data-dir root and
// follows the leader's bare /v1/replication/... URLs, the single-world
// layout on disk and on the wire. Either way bare /v1/... paths alias
// the default world. See docs/API.md.
//
// With -data-dir the server is durable: every successful build is
// appended to an on-disk snapshot store (internal/store), a restart
// warm-starts every world from its newest intact generation, -store-keep
// bounds retention, and ?gen=N on the artifact endpoints pins a read to
// a stored generation with its original bytes and ETag. A leader world
// that warm-started serves at once and starts one fresh build in the
// background; a cold-built world is already current and does not.
// SIGHUP rebuilds every world, each with its own config.
//
// With -data-dir the server is also a replication leader: it exposes
// GET /v1/replication/generations (the sealed-segment catalog) and
// GET /v1/replication/segment/{gen} (raw segment bytes with ETag and
// Range support) for each world. A second marketd started with -follow
// <leader-url> and the same -scenarios runs as a follower: it never
// builds locally, pulls every world's segments into its own -data-dir
// (verified, atomic, quarantining corrupt downloads), and serves byte-
// and ETag-identical responses. Followers poll every -poll-interval
// (their first sync retries on the same period), back off with jitter
// when the leader is unreachable, keep serving their last good
// generation in the meantime, and answer 409 on POST /admin/rebuild. See
// internal/replicate. A follower's -max-lag gates its /readyz on
// replication lag — an integer bounds generations behind the leader, a
// duration bounds time since the last successful sync — so a router
// polling /readyz drains stale followers while they keep serving direct
// clients.
//
// -selfcheck boots the server on a loopback port, queries it through a
// real HTTP client, and exits; scripts/check.sh uses it as the smoke
// test. It walks the default world's bare surface, every world's
// /v1/{scenario}/... surface, the listing, the default alias, and seed
// isolation between worlds. With -data-dir it also pins ?gen= reads per
// world, then proves the restart path for every world: it shuts the
// server down, re-verifies every on-disk segment checksum, warm-starts a
// second registry over the same directory, and asserts body and ETag
// continuity.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"ipv4market/internal/scenario"
	"ipv4market/internal/serve"
	"ipv4market/internal/simulation"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "marketd:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, args []string) error {
	// Worlds build, rebuild and log concurrently; one Fprintf is one
	// Write, so serializing writes keeps every line whole.
	w := &lockedWriter{w: out}
	fs := flag.NewFlagSet("marketd", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:8090", "listen address")
		seed      = fs.Int64("seed", 0, "simulation seed (overrides config default when nonzero)")
		lirs      = fs.Int("lirs", 0, "number of LIR organizations (0: config default)")
		days      = fs.Int("days", 0, "routing window length in days (0: config default)")
		timeout   = fs.Duration("timeout", 10*time.Second, "per-request handler timeout")
		drain     = fs.Duration("drain", 5*time.Second, "graceful-shutdown drain window")
		admin     = fs.Bool("admin", false, "expose POST /admin/rebuild")
		selfcheck = fs.Bool("selfcheck", false, "boot on a loopback port, smoke-query the API, exit")
		workers   = fs.Int("buildworkers", 0, "snapshot build-stage worker count (0: NumCPU); output is identical at any count")
		dataDir   = fs.String("data-dir", "", "durable snapshot store directory (empty: in-memory only)")
		storeKeep = fs.Int("store-keep", 5, "generations to retain in the store after each persist (< 1: keep all)")
		scenDir   = fs.String("scenarios", "", "scenario config directory: serve a multi-scenario matrix from its *.json specs (see docs/API.md)")
		follow    = fs.String("follow", "", "run as replication follower of this leader base URL (requires -data-dir)")
		pollEvery = fs.Duration("poll-interval", 5*time.Second, "follower: steady-state leader poll period")
		maxLag    = fs.String("max-lag", "", "follower: /readyz answers 503 beyond this lag — an integer bounds generations behind the leader, a duration (e.g. 30s) bounds time since the last successful sync")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := simulation.DefaultConfig()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *lirs > 0 {
		cfg.NumLIRs = *lirs
	}
	if *days > 0 {
		cfg.RoutingDays = *days
	}

	follower := *follow != ""
	if follower && *dataDir == "" {
		return fmt.Errorf("marketd: -follow requires -data-dir (the follower's local segment store)")
	}
	maxLagGens, maxLagAge, err := parseMaxLag(*maxLag)
	if err != nil {
		return err
	}
	if *maxLag != "" && !follower {
		return fmt.Errorf("marketd: -max-lag only applies to followers (set -follow)")
	}
	if follower && *selfcheck {
		return fmt.Errorf("marketd: -selfcheck and -follow are mutually exclusive (selfcheck the leader instead)")
	}

	specs := []scenario.Spec{scenario.Implicit(cfg.Seed)}
	if *scenDir != "" {
		if *seed != 0 {
			return fmt.Errorf("marketd: -seed conflicts with -scenarios (each scenario spec carries its own seed)")
		}
		if specs, err = scenario.LoadDir(*scenDir); err != nil {
			return fmt.Errorf("marketd: %w", err)
		}
		fmt.Fprintf(w, "marketd: scenario matrix: %d spec(s) from %s, default %q\n",
			len(specs), *scenDir, scenario.DefaultName(specs))
	}
	if *maxLag != "" {
		fmt.Fprintf(w, "marketd: follower: /readyz gated at max lag %s\n", *maxLag)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := scenario.Options{
		BaseCfg:      cfg,
		DataDir:      *dataDir,
		StoreKeep:    *storeKeep,
		Timeout:      *timeout,
		EnableAdmin:  *admin || *selfcheck,
		BuildWorkers: *workers,
		FollowURL:    *follow,
		PollInterval: *pollEvery,
		LagGate:      *maxLag != "",
		MaxLagGens:   maxLagGens,
		MaxLagAge:    maxLagAge,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(w, "marketd: "+format+"\n", args...)
		},
	}
	start := time.Now()
	reg, err := scenario.New(ctx, specs, opts)
	if err != nil {
		return fmt.Errorf("marketd: %w", err)
	}
	for _, name := range reg.Names() {
		srv := reg.World(name)
		snap := srv.Snapshot()
		how := "built"
		switch {
		case follower:
			how = "follower: synced"
		case srv.WarmStarted():
			how = "warm start: restored"
		}
		fmt.Fprintf(w, "marketd: [%s] %s generation %d (seed=%d, built %s): %d transfers, %d price cells, %d delegations\n",
			name, how, snap.Gen, snap.Cfg.Seed, snap.BuiltAt.UTC().Format(time.RFC3339),
			snap.TransferTotal(), len(snap.PriceCells), snap.Delegations.Len())
	}
	fmt.Fprintf(w, "marketd: %d world(s) ready in %v\n", len(reg.Names()), time.Since(start).Round(time.Millisecond))

	if *selfcheck {
		return runSelfcheck(w, reg, specs, opts, *drain)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("marketd: listen: %w", err)
	}
	if follower {
		reg.Run(ctx)
	} else {
		refreshWarmWorlds(w, reg)
		// SIGHUP rebuilds are a leader affordance; a follower's snapshots
		// only ever come from its leader.
		rebuildOnHUP(ctx, w, reg)
	}
	fmt.Fprintf(w, "marketd: serving on http://%s\n", ln.Addr())
	if err := serveOn(ctx, ln, reg, *drain); err != nil {
		return err
	}
	fmt.Fprintln(w, "marketd: shut down cleanly")
	return nil
}

// lockedWriter serializes writes to w.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// parseMaxLag interprets the -max-lag value: empty means no gate, a
// bare integer bounds generations behind the leader, and anything
// time.ParseDuration accepts bounds staleness of the last successful
// sync. The unused dimension is disabled (-1 generations / 0 age).
func parseMaxLag(s string) (maxGens int, maxAge time.Duration, err error) {
	if s == "" {
		return -1, 0, nil
	}
	if n, convErr := strconv.Atoi(s); convErr == nil {
		if n < 0 {
			return 0, 0, fmt.Errorf("marketd: -max-lag %q: generation bound must be >= 0", s)
		}
		return n, 0, nil
	}
	d, parseErr := time.ParseDuration(s)
	if parseErr != nil {
		return 0, 0, fmt.Errorf("marketd: -max-lag %q: want a generation count (e.g. 2) or a duration (e.g. 30s)", s)
	}
	if d <= 0 {
		return 0, 0, fmt.Errorf("marketd: -max-lag %q: duration bound must be positive", s)
	}
	return -1, d, nil
}

// refreshWarmWorlds starts one background rebuild, with the world's own
// config, for every world that warm-started: such a world serves
// yesterday's data by design and converges on a current snapshot
// without delaying the first request. A cold-built world is already
// current and is left alone.
func refreshWarmWorlds(w io.Writer, reg *scenario.Registry) {
	for _, name := range reg.Names() {
		if reg.World(name).WarmStarted() && reg.Rebuild(name) {
			fmt.Fprintf(w, "marketd: [%s] fresh rebuild started in background\n", name)
		}
	}
}

// rebuildOnHUP rebuilds every world, each with its own config, on each
// SIGHUP until ctx ends. Readers keep the old snapshot until the new one
// swaps in.
func rebuildOnHUP(ctx context.Context, w io.Writer, reg *scenario.Registry) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() { // coordinated: exits when ctx is done, signal handler released
		defer signal.Stop(hup)
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				fmt.Fprintf(w, "marketd: SIGHUP: rebuild started for %d of %d world(s)\n",
					reg.RebuildAll(), len(reg.Names()))
			}
		}
	}()
}

// Limits on marketd's one http.Server, which bound what a slow or
// idle client can hold: the request header must arrive within
// readHeaderTimeout, a keep-alive connection closes after idleTimeout
// without a request, and a header may not exceed maxHeaderBytes.
// There is no write timeout: segment downloads stream whole sealed
// segments to followers.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// serveOn serves reg on ln until ctx ends, gives in-flight requests up
// to drain to finish, and waits for in-flight rebuilds.
func serveOn(ctx context.Context, ln net.Listener, reg *scenario.Registry, drain time.Duration) error {
	err := serve.Serve(ctx, &http.Server{
		Handler:           reg,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}, ln, drain)
	reg.Wait()
	return err
}

// selfcheckPaths are the endpoints the -selfcheck smoke test must serve
// with 200 OK.
var selfcheckPaths = []string{
	"/healthz",
	"/readyz",
	"/varz",
	"/v1/table1",
	"/v1/table1?format=csv",
	"/v1/figures/1",
	"/v1/figures/2",
	"/v1/figures/3",
	"/v1/figures/4",
	"/v1/prices",
	"/v1/prices?size=/16",
	"/v1/transfers",
	"/v1/delegations",
	"/v1/leasing",
	"/v1/headline",
	"/v1/utilization",
	"/v1/utilization?format=csv",
	"/v1/rpki",
	"/v1/scenarios",
	"/v1/asof?date=2019-06-01&prefix=185.0.0.0/16",
	"/v1/asof/timeline?prefix=185.0.0.0/16",
	"/v1/asof/diff?from=2015-01-01&to=2015-12-31",
}

// scenarioCheckPaths is the surface the selfcheck walks in every world,
// each prefixed with /v1/{scenario}. It stays clear of date-pinned asof
// queries because scenario specs may shrink the routing window.
var scenarioCheckPaths = []string{
	"/healthz",
	"/readyz",
	"/varz",
	"/table1",
	"/table1?format=csv",
	"/figures/1",
	"/prices",
	"/transfers",
	"/delegations",
	"/leasing",
	"/headline",
	"/utilization",
	"/utilization?format=csv",
	"/rpki",
	"/scenarios",
}

// loopback serves reg through serveOn on an ephemeral loopback port.
// The returned shutdown function stops serving and waits for in-flight
// rebuilds; it is safe to call exactly once.
func loopback(reg *scenario.Registry, drain time.Duration) (base string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("marketd: selfcheck listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { // coordinated: result drained in shutdown after cancel
		done <- serveOn(ctx, ln, reg, drain)
	}()
	shutdown = func() error {
		cancel()
		return <-done
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// checkGet expects 200 OK for path and logs the result.
func checkGet(w io.Writer, client *http.Client, base, path string) ([]byte, string, error) {
	resp, err := client.Get(base + path)
	if err != nil {
		return nil, "", fmt.Errorf("marketd: selfcheck %s: %w", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, "", fmt.Errorf("marketd: selfcheck %s: read: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("marketd: selfcheck %s: status %d", path, resp.StatusCode)
	}
	fmt.Fprintf(w, "marketd: selfcheck %-28s %d (%d bytes)\n", path, resp.StatusCode, len(body))
	return body, resp.Header.Get("ETag"), nil
}

// answer is one response's identity.
type answer struct {
	body []byte
	etag string
}

// generationList is the part of GET /v1/history and GET
// /v1/replication/generations the selfcheck reads.
type generationList struct {
	Generations []struct {
		Gen uint64 `json:"gen"`
	} `json:"generations"`
}

// runSelfcheck serves reg on an ephemeral loopback port, walks it
// through a real HTTP client, and reports pass/fail. It is the full
// boot-listen-query-shutdown cycle in one process, so CI needs no curl
// or background job control. With a data directory it then proves the
// durability contract for every world (selfcheckRestart).
func runSelfcheck(w io.Writer, reg *scenario.Registry, specs []scenario.Spec, opts scenario.Options, drain time.Duration) error {
	base, shutdown, err := loopback(reg, drain)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	table1, requests, err := selfcheckWalk(w, client, base, reg, opts.DataDir != "")
	if shutErr := shutdown(); err == nil {
		err = shutErr
	}
	if err != nil {
		return err
	}
	if opts.DataDir == "" {
		fmt.Fprintf(w, "marketd: selfcheck passed (%d world(s), %d endpoints)\n", len(table1), requests)
		return nil
	}
	return selfcheckRestart(w, client, reg, specs, opts, drain, table1, requests)
}

// selfcheckWalk queries every endpoint of the served registry: the bare
// selfcheckPaths against the default world (with a store also its
// history and ?gen= pins), the listing, and scenarioCheckPaths under
// /v1/{scenario} for every world (with a store also a ?gen= pin that
// must equal the live artifact). Worlds with different seeds must serve
// different transfer logs, and bare paths must be byte- and
// ETag-identical to the default world's. It returns each world's
// /table1 answer and the number of requests made.
func selfcheckWalk(w io.Writer, client *http.Client, base string, reg *scenario.Registry, durable bool) (map[string]answer, int, error) {
	seen := make(map[string]answer)
	get := func(path string) error {
		body, etag, err := checkGet(w, client, base, path)
		seen[path] = answer{body, etag}
		return err
	}

	paths := selfcheckPaths
	if durable {
		gen := reg.World(reg.DefaultName()).Snapshot().Gen
		paths = append(append([]string{}, paths...),
			"/v1/history",
			fmt.Sprintf("/v1/table1?gen=%d", gen),
			fmt.Sprintf("/v1/prices?gen=%d", gen),
		)
	}
	for _, path := range paths {
		if err := get(path); err != nil {
			return nil, 0, err
		}
	}

	// The listing is the registry's table of contents; the per-world
	// walk follows it.
	var listing struct {
		Default   string `json:"default"`
		Scenarios []struct {
			Name string `json:"name"`
			Seed int64  `json:"seed"`
			Gen  uint64 `json:"gen"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(seen["/v1/scenarios"].body, &listing); err != nil {
		return nil, 0, fmt.Errorf("marketd: selfcheck /v1/scenarios: %w", err)
	}
	if got, want := len(listing.Scenarios), len(reg.Names()); got != want {
		return nil, 0, fmt.Errorf("marketd: selfcheck /v1/scenarios lists %d world(s), want %d", got, want)
	}
	if listing.Default != reg.DefaultName() {
		return nil, 0, fmt.Errorf("marketd: selfcheck /v1/scenarios default %q, want %q", listing.Default, reg.DefaultName())
	}

	table1 := make(map[string]answer, len(listing.Scenarios))
	for _, sc := range listing.Scenarios {
		prefix := "/v1/" + sc.Name
		for _, p := range scenarioCheckPaths {
			if err := get(prefix + p); err != nil {
				return nil, 0, err
			}
		}
		table1[sc.Name] = seen[prefix+"/table1"]
		if durable {
			pinned := fmt.Sprintf("%s/utilization?gen=%d", prefix, sc.Gen)
			if err := get(pinned); err != nil {
				return nil, 0, err
			}
			if !bytes.Equal(seen[pinned].body, seen[prefix+"/utilization"].body) {
				return nil, 0, fmt.Errorf("marketd: selfcheck: %s differs from the live artifact", pinned)
			}
		}
	}

	// Isolation: distinct seeds must produce distinct worlds.
	for i, a := range listing.Scenarios {
		for _, b := range listing.Scenarios[i+1:] {
			if a.Seed != b.Seed && bytes.Equal(seen["/v1/"+a.Name+"/transfers"].body, seen["/v1/"+b.Name+"/transfers"].body) {
				return nil, 0, fmt.Errorf("marketd: selfcheck: worlds %s and %s (different seeds) serve identical transfer logs",
					a.Name, b.Name)
			}
		}
	}

	// Alias: bare paths are the default world, byte for byte.
	bare, def := seen["/v1/transfers"], seen["/v1/"+listing.Default+"/transfers"]
	if !bytes.Equal(bare.body, def.body) || bare.etag != def.etag {
		return nil, 0, fmt.Errorf("marketd: selfcheck: bare /v1/transfers is not byte-identical to /v1/%s/transfers", listing.Default)
	}
	return table1, len(seen), nil
}

// selfcheckRestart is the second phase of a durable selfcheck, run for
// every world of the stopped registry reg: re-checksum every stored
// segment, warm-start a second registry over the same data directory,
// and require the /table1 bytes and ETag the first one served, a 304 on
// the pre-restart ETag, and non-empty replication and history listings.
func selfcheckRestart(w io.Writer, client *http.Client, reg *scenario.Registry, specs []scenario.Spec,
	opts scenario.Options, drain time.Duration, want map[string]answer, phase1 int) error {
	// Re-checksum every segment on disk (frame CRCs + footer) — the same
	// verification replication followers run on downloads.
	segments := 0
	for _, name := range reg.Names() {
		st := reg.Store(name)
		for _, g := range st.Generations() {
			if err := st.Verify(g.Gen); err != nil {
				return fmt.Errorf("marketd: selfcheck: %w", err)
			}
			segments++
		}
	}
	fmt.Fprintf(w, "marketd: selfcheck verify: %d segment(s) re-checksummed clean\n", segments)

	fmt.Fprintln(w, "marketd: selfcheck restart: warm-starting a second registry over", opts.DataDir)
	reg2, err := scenario.New(context.Background(), specs, opts)
	if err != nil {
		return fmt.Errorf("marketd: selfcheck restart: %w", err)
	}
	base, shutdown, err := loopback(reg2, drain)
	if err != nil {
		return err
	}
	defer shutdown()

	for _, name := range reg2.Names() {
		if !reg2.World(name).WarmStarted() {
			return fmt.Errorf("marketd: selfcheck restart: world %s did not warm-start", name)
		}
		path := "/v1/" + name + "/table1"
		body, etag, err := checkGet(w, client, base, path)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, want[name].body) {
			return fmt.Errorf("marketd: selfcheck restart: %s body differs from pre-restart bytes", path)
		}
		if etag != want[name].etag {
			return fmt.Errorf("marketd: selfcheck restart: %s ETag %s, want %s", path, etag, want[name].etag)
		}

		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			return fmt.Errorf("marketd: selfcheck restart: %w", err)
		}
		req.Header.Set("If-None-Match", etag)
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("marketd: selfcheck restart: conditional GET: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			return fmt.Errorf("marketd: selfcheck restart: pre-restart ETag on %s answered %d, want 304", path, resp.StatusCode)
		}
		fmt.Fprintf(w, "marketd: selfcheck %-28s %d (ETag continuity)\n", path+" If-None-Match", resp.StatusCode)

		for _, p := range []string{"/v1/replication/generations", "/history"} {
			body, _, err := checkGet(w, client, base, "/v1/"+name+p)
			if err != nil {
				return err
			}
			var list generationList
			if err := json.Unmarshal(body, &list); err != nil {
				return fmt.Errorf("marketd: selfcheck restart: /v1/%s%s: %w", name, p, err)
			}
			if len(list.Generations) == 0 {
				return fmt.Errorf("marketd: selfcheck restart: /v1/%s%s lists no generations", name, p)
			}
		}
	}

	fmt.Fprintf(w, "marketd: selfcheck passed (%d world(s), %d endpoints + restart continuity)\n", len(want), phase1)
	return nil
}
