package scenario

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"ipv4market/internal/replicate"
	"ipv4market/internal/serve"
	"ipv4market/internal/simulation"
	"ipv4market/internal/store"
)

// implicitPaths are the artifacts the implicit-world tests compare.
var implicitPaths = []string{"/v1/table1", "/v1/prices?size=24", "/v1/transfers", "/v1/utilization"}

// TestImplicitSpecKeepsBase pins that the implicit world is exactly the
// flags' world: Config returns its base unchanged.
func TestImplicitSpecKeepsBase(t *testing.T) {
	seeded := testBase()
	seeded.Seed = 42
	for _, b := range []simulation.Config{simulation.DefaultConfig(), seeded} {
		spec := Implicit(b.Seed)
		if got := spec.Config(b); !reflect.DeepEqual(got, b) {
			t.Errorf("Implicit(%d).Config(base) = %+v, want base %+v", b.Seed, got, b)
		}
		if spec.Name != "default" || !spec.Default || spec.Adversarial() {
			t.Errorf("Implicit(%d) = %+v, want a non-adversarial default world named default", b.Seed, spec)
		}
	}
}

// TestImplicitWorld checks the single-world layout: segments at the
// DataDir root, and /v1/... bytes and ETags equal to a standalone
// serve.Server built from the same config.
func TestImplicitWorld(t *testing.T) {
	dir := t.TempDir()
	cfg := testBase()
	reg, err := New(context.Background(), []Spec{Implicit(cfg.Seed)}, Options{BaseCfg: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "default")); !os.IsNotExist(err) {
		t.Errorf("implicit world created a %s/default subdirectory (stat err %v)", dir, err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Generations()) != 1 {
		t.Errorf("data dir root holds %d generation(s), want 1", len(st.Generations()))
	}

	standalone, err := serve.New(cfg, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range implicitPaths {
		body, etag := getOK(t, reg, p)
		rec := httptest.NewRecorder()
		standalone.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if !bytes.Equal(body, rec.Body.Bytes()) || etag != rec.Header().Get("ETag") {
			t.Errorf("%s: implicit world differs from a standalone server", p)
		}
		prefixed, prefETag := getOK(t, reg, "/v1/default"+p[3:])
		if !bytes.Equal(body, prefixed) || etag != prefETag {
			t.Errorf("%s: bare path differs from /v1/default%s", p, p[3:])
		}
	}
}

// TestImplicitWorldWarmStartsSingleWorldStore opens a data dir in the
// single-world layout (one store at the root, written by a standalone
// server) and requires the implicit world to warm-start from it with
// the persisted bytes and ETags.
func TestImplicitWorldWarmStartsSingleWorldStore(t *testing.T) {
	dir := t.TempDir()
	cfg := testBase()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old, err := serve.New(cfg, serve.Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := New(context.Background(), []Spec{Implicit(cfg.Seed)}, Options{BaseCfg: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := reg.World("default")
	if !srv.WarmStarted() || srv.Snapshot().Gen != old.Snapshot().Gen {
		t.Fatalf("implicit world: warm=%v gen=%d, want a warm start of gen %d",
			srv.WarmStarted(), srv.Snapshot().Gen, old.Snapshot().Gen)
	}
	for _, p := range implicitPaths {
		body, etag := getOK(t, reg, p)
		rec := httptest.NewRecorder()
		old.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if !bytes.Equal(body, rec.Body.Bytes()) || etag != rec.Header().Get("ETag") {
			t.Errorf("%s: warm-started answer differs from the persisted one", p)
		}
	}
}

// TestImplicitFollowerUsesBareURLs follows a single-world leader (a
// standalone server with the replication surface at the root) and
// requires the implicit world to sync from its bare
// /v1/replication/... URLs.
func TestImplicitFollowerUsesBareURLs(t *testing.T) {
	cfg := testBase()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	leader, err := serve.New(cfg, serve.Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ls := replicate.NewLeader(st)
	leader.Mount(replicate.PatternGenerations, ls.Generations(), 0)
	leader.Mount(replicate.PatternSegment, ls.Segment(), 0)
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()

	fol, err := New(context.Background(), []Spec{Implicit(cfg.Seed)}, Options{
		BaseCfg: cfg, DataDir: t.TempDir(), FollowURL: ts.URL + "/", PollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range implicitPaths {
		body, etag := getOK(t, fol, p)
		rec := httptest.NewRecorder()
		leader.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if !bytes.Equal(body, rec.Body.Bytes()) || etag != rec.Header().Get("ETag") {
			t.Errorf("%s: follower differs from the single-world leader", p)
		}
	}
}

// TestFollowerFirstSyncRetriesAtPollInterval boots a follower against a
// leader whose first replication listing fails: the retry must come
// after PollInterval, not after a fixed second.
func TestFollowerFirstSyncRetriesAtPollInterval(t *testing.T) {
	specs := []Spec{{Name: "calm", Seed: 3}}
	leader, err := New(context.Background(), specs, Options{BaseCfg: testBase(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		listings []time.Time
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/calm/v1/replication/generations" {
			mu.Lock()
			listings = append(listings, time.Now())
			first := len(listings) == 1
			mu.Unlock()
			if first {
				http.Error(w, "warming up", http.StatusServiceUnavailable)
				return
			}
		}
		leader.ServeHTTP(w, r)
	}))
	defer ts.Close()

	if _, err := New(context.Background(), specs, Options{
		BaseCfg: testBase(), DataDir: t.TempDir(), FollowURL: ts.URL, PollInterval: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(listings) < 2 {
		t.Fatalf("leader saw %d listing request(s), want a failed one and a retry", len(listings))
	}
	if gap := listings[1].Sub(listings[0]); gap > 500*time.Millisecond {
		t.Errorf("first-sync retry came %v after the failure, want about the 20ms PollInterval", gap)
	}
}

// TestRebuildAllAdvancesEveryWorld drives the SIGHUP surface: every
// world's generation advances, and a same-config rebuild keeps every
// byte and ETag.
func TestRebuildAllAdvancesEveryWorld(t *testing.T) {
	reg := newTestRegistry(t, Options{DataDir: t.TempDir()})
	type ident struct {
		gen  uint64
		body []byte
		etag string
	}
	before := make(map[string]ident)
	for _, name := range reg.Names() {
		body, etag := getOK(t, reg, "/v1/"+name+"/utilization")
		before[name] = ident{reg.World(name).Snapshot().Gen, append([]byte(nil), body...), etag}
	}
	if got := reg.RebuildAll(); got != len(before) {
		t.Fatalf("RebuildAll started %d rebuild(s), want %d", got, len(before))
	}
	reg.Wait()
	for name, was := range before {
		if gen := reg.World(name).Snapshot().Gen; gen <= was.gen {
			t.Errorf("%s: generation %d did not advance past %d", name, gen, was.gen)
		}
		body, etag := getOK(t, reg, "/v1/"+name+"/utilization")
		if !bytes.Equal(body, was.body) || etag != was.etag {
			t.Errorf("%s: bytes or ETag changed across a same-config rebuild", name)
		}
	}
}

// TestFollowerRunCatchesUp runs a follower registry's replication loops
// against a leader registry: after the leader rebuilds every world, the
// follower adopts the new generations with identical bytes.
func TestFollowerRunCatchesUp(t *testing.T) {
	leader := newTestRegistry(t, Options{DataDir: t.TempDir()})
	ts := httptest.NewServer(leader)
	defer ts.Close()
	fol := newTestRegistry(t, Options{DataDir: t.TempDir(), FollowURL: ts.URL, PollInterval: 20 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fol.Run(ctx)

	leader.RebuildAll()
	leader.Wait()
	deadline := time.Now().Add(20 * time.Second)
	for _, name := range leader.Names() {
		want := leader.World(name).Snapshot().Gen
		for fol.World(name).Snapshot().Gen < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: follower stuck at gen %d, leader at %d", name, fol.World(name).Snapshot().Gen, want)
			}
			time.Sleep(10 * time.Millisecond)
		}
		for _, p := range []string{"/table1", "/utilization", "/rpki"} {
			lbody, letag := getOK(t, leader, "/v1/"+name+p)
			fbody, fetag := getOK(t, fol, "/v1/"+name+p)
			if !bytes.Equal(lbody, fbody) || letag != fetag {
				t.Errorf("/v1/%s%s: follower differs from leader after catch-up", name, p)
			}
		}
	}
}
