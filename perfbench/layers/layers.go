// Package layers is the benchmark's in-process layer pass: it times the
// calls into each module's long-lived public entry points on the
// paper-scale world, giving one number per layer. It sends the same
// sampled requests through each rung of the serving stack in turn —
// in-process handler, then net/http over loopback, then the scenario
// router — so the rungs can be subtracted.
package layers

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ipv4market/internal/core"
	"ipv4market/internal/delegation"
	"ipv4market/internal/netblock"
	"ipv4market/internal/replicate"
	"ipv4market/internal/scenario"
	"ipv4market/internal/serve"
	"ipv4market/internal/simulation"
	"ipv4market/internal/store"
	"ipv4market/internal/temporal"
)

// Config selects the world and the sampled requests of one pass.
type Config struct {
	LIRs int
	Days int
	Seed int64
	// Paths are sampled /v1 request paths relative to the /v1 prefix
	// ("/table1", "/asof?date=...").
	Paths []string
	// Static marks the paths that serve a pre-encoded artifact.
	Static []bool
	// ScenarioSpec is a scenario spec file for the router rung.
	ScenarioSpec string
	// Dir is a scratch directory for the pass's stores.
	Dir string
}

// reps is how many times each cheap call is repeated; the median is
// reported.
const reps = 5

// Run executes the pass and returns each metric by name. Units are in
// the name's suffix: _s, _ms, _us, _mb; the others are counts or ratios.
func Run(ctx context.Context, c Config) (map[string]float64, error) {
	m := make(map[string]float64)
	t := &timer{}
	median := t.median
	cfg := simulation.DefaultConfig()
	cfg.Seed, cfg.NumLIRs, cfg.RoutingDays = c.Seed, c.LIRs, c.Days

	// simulation: world generation and one routing survey.
	var w *simulation.World
	m["simulation.world_s"] = median(reps, func() error {
		var err error
		w, err = simulation.Build(cfg)
		return err
	}, time.Second)
	if t.err != nil {
		return nil, fmt.Errorf("simulation.Build: %w", t.err)
	}
	rs := simulation.NewRoutingSim(w)
	day := 0
	m["simulation.survey_ms"] = median(reps, func() error {
		day = (day + cfg.RoutingDays/reps) % cfg.RoutingDays
		rs.SurveyAt(day)
		return nil
	}, time.Millisecond)

	// core: the serial utilization stage and the RPKI series.
	study, err := core.NewStudy(cfg)
	if err != nil {
		return nil, fmt.Errorf("core.NewStudy: %w", err)
	}
	m["core.utilization_s"] = median(1, func() error {
		_, err := study.UtilizationWorkers(1)
		return err
	}, time.Second)
	m["core.rpki_series_s"] = median(3, func() error {
		_, err := study.RPKISeries()
		return err
	}, time.Second)

	// delegation: inference on a fixed survey (the window's last day).
	last := cfg.RoutingDays - 1
	survey := study.Routing.SurveyAt(last)
	inf := delegation.DefaultInference(study.World.OrgSeries)
	date := cfg.RoutingStart.AddDate(0, 0, last)
	m["delegation.infer_ms"] = median(reps, func() error {
		inf.FromSurvey(date, survey)
		return nil
	}, time.Millisecond)

	// serve build: the whole snapshot DAG, with its allocation volume.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	snap, err := serve.BuildSnapshotOpts(cfg, serve.BuildOptions{})
	if err != nil {
		return nil, fmt.Errorf("serve.BuildSnapshotOpts: %w", err)
	}
	runtime.ReadMemStats(&after)
	m["serve.build_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

	// temporal: index build, restore from its record, and the three
	// query kinds on the sampled asof requests.
	in := snap.Temporal.Input()
	var ix *temporal.Index
	m["temporal.build_s"] = median(3, func() error {
		var err error
		ix, err = temporal.New(in)
		return err
	}, time.Second)
	rec, err := ix.Record()
	if err != nil {
		return nil, fmt.Errorf("temporal.Record: %w", err)
	}
	m["temporal.restore_s"] = median(3, func() error {
		_, err := temporal.Restore(rec)
		return err
	}, time.Second)
	if err := temporalQueries(m, ix, c.Paths); err != nil {
		return nil, err
	}

	// store and serve over a durable store: a cold serve.New persists
	// generation 1, which is then loaded, appended elsewhere, opened per
	// artifact, and adopted.
	stA, err := store.Open(filepath.Join(c.Dir, "store-a"))
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(cfg, serve.Options{Store: stA})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	gen := srv.Snapshot().Gen
	info, _ := stA.Generation(gen)
	m["store.segment_mb"] = float64(info.Bytes) / (1 << 20)
	var meta store.Meta
	var arts []store.Artifact
	m["store.load_s"] = median(reps, func() error {
		var err error
		meta, arts, err = stA.Load(gen)
		return err
	}, time.Second)
	stB, err := store.Open(filepath.Join(c.Dir, "store-b"))
	if err != nil {
		return nil, err
	}
	m["store.append_s"] = median(3, func() error {
		_, err := stB.Append(meta, arts)
		return err
	}, time.Second)
	key, ctype := "table1", "application/json"
	m["store.open_artifact_us"] = median(200, func() error {
		r, err := stA.OpenArtifact(gen, key, ctype)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, r)
		r.Close()
		return err
	}, time.Microsecond)
	m["serve.adopt_s"] = median(3, func() error { return srv.AdoptGeneration(gen) }, time.Second)

	if t.err != nil {
		return nil, t.err
	}
	if err := requestLadder(ctx, m, srv, c); err != nil {
		return nil, err
	}
	if err := replication(ctx, m, stA, c.Dir); err != nil {
		return nil, err
	}
	if err := router(ctx, m, cfg, c); err != nil {
		return nil, err
	}
	return m, nil
}

// timer repeats timed calls and keeps the first error.
type timer struct{ err error }

// median runs fn n times and returns the median duration in units. After
// a failed call it measures nothing more; Run returns the error.
func (t *timer) median(n int, fn func() error, unit time.Duration) float64 {
	if t.err != nil {
		return 0
	}
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			t.err = err
			return 0
		}
		ds = append(ds, float64(time.Since(start))/float64(unit))
	}
	return med(ds)
}

func med(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// temporalQueries times the index queries behind the sampled asof
// requests.
func temporalQueries(m map[string]float64, ix *temporal.Index, paths []string) error {
	var at, tl, diff []float64
	for _, p := range paths {
		path, rawQuery, _ := strings.Cut(p, "?")
		q, err := url.ParseQuery(rawQuery)
		if err != nil {
			return err
		}
		switch path {
		case "/asof":
			pfx, err := netblock.ParsePrefix(q.Get("prefix"))
			if err != nil {
				return err
			}
			d, err := time.Parse("2006-01-02", q.Get("date"))
			if err != nil {
				return err
			}
			start := time.Now()
			ix.At(pfx, d)
			at = append(at, us(time.Since(start)))
		case "/asof/timeline":
			pfx, err := netblock.ParsePrefix(q.Get("prefix"))
			if err != nil {
				return err
			}
			start := time.Now()
			ix.Timeline(pfx)
			tl = append(tl, us(time.Since(start)))
		case "/asof/diff":
			from, err := time.Parse("2006-01-02", q.Get("from"))
			if err != nil {
				return err
			}
			to, err := time.Parse("2006-01-02", q.Get("to"))
			if err != nil {
				return err
			}
			start := time.Now()
			ix.Diff(from, to)
			diff = append(diff, us(time.Since(start)))
		}
	}
	m["temporal.at_us"], m["temporal.timeline_us"], m["temporal.diff_us"] = med(at), med(tl), med(diff)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// requestLadder sends the sampled requests through the in-process
// handler (cold cache, then warm) and then through net/http over
// loopback, and times delegation lookups and /varz renders directly.
func requestLadder(ctx context.Context, m map[string]float64, srv *serve.Server, c Config) error {
	h := srv.Handler()
	serveOne := func(path string) (float64, error) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := us(time.Since(start))
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process GET %s: status %d", path, rec.Code)
		}
		return d, nil
	}

	// Rung 1, cold: classify each request as a static artifact, a
	// computed query (first time its key is seen) or a cached one.
	var static, computed, cached []float64
	seen := make(map[string]bool)
	for i, p := range c.Paths {
		d, err := serveOne("/v1" + p)
		if err != nil {
			return err
		}
		switch {
		case c.Static[i]:
			static = append(static, d)
		case seen[p]:
			cached = append(cached, d)
		default:
			computed = append(computed, d)
		}
		seen[p] = true
	}
	m["serve.handler_us.static"] = med(static)
	m["serve.handler_us.cached"] = med(cached)
	m["serve.handler_us.computed"] = med(computed)

	// Rung 1 again, warm, then rung 2 (loopback) on the same requests.
	warm := make([]float64, len(c.Paths))
	for i, p := range c.Paths {
		d, err := serveOne("/v1" + p)
		if err != nil {
			return err
		}
		warm[i] = d
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		select {
		case <-served:
		case <-ctx.Done():
		}
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	base := "http://" + ln.Addr().String()
	var diffs []float64
	for i, p := range c.Paths {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1"+p, nil)
		if err != nil {
			return err
		}
		start := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d := us(time.Since(start))
		if err != nil {
			return fmt.Errorf("loopback GET %s: %w", p, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("loopback GET %s: status %d", p, resp.StatusCode)
		}
		diffs = append(diffs, d-warm[i])
	}
	m["http.loopback_us"] = med(diffs)

	// Direct index lookups for the sampled delegation queries.
	ix := srv.Snapshot().Delegations
	var lookups []float64
	for _, p := range c.Paths {
		raw, ok := strings.CutPrefix(p, "/delegations?prefix=")
		if !ok {
			continue
		}
		pfx, err := netblock.ParsePrefix(raw)
		if err != nil {
			return err
		}
		start := time.Now()
		ix.Lookup(pfx)
		lookups = append(lookups, us(time.Since(start)))
	}
	m["serve.lookup_us"] = med(lookups)

	var scrapes []float64
	for i := 0; i < 50; i++ {
		d, err := serveOne("/varz")
		if err != nil {
			return err
		}
		scrapes = append(scrapes, d)
	}
	m["serve.varz_scrape_us"] = med(scrapes)
	return nil
}

// replication syncs fresh follower stores from an in-process leader over
// loopback.
func replication(ctx context.Context, m map[string]float64, st *store.Store, dir string) error {
	leader := replicate.NewLeader(st)
	mux := http.NewServeMux()
	mux.Handle(replicate.PatternGenerations, leader.Generations())
	mux.Handle(replicate.PatternSegment, leader.Segment())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		select {
		case <-served:
		case <-ctx.Done():
		}
	}()
	var syncs, bytes, errs []float64
	for i := 0; i < 3; i++ {
		fst, err := store.Open(filepath.Join(dir, fmt.Sprintf("follower-%d", i)))
		if err != nil {
			return err
		}
		r, err := replicate.New(replicate.Options{LeaderURL: "http://" + ln.Addr().String(), Store: fst})
		if err != nil {
			return err
		}
		start := time.Now()
		if err := r.SyncOnce(ctx); err != nil {
			return fmt.Errorf("replicate.SyncOnce: %w", err)
		}
		syncs = append(syncs, time.Since(start).Seconds())
		s := r.Status()
		bytes = append(bytes, float64(s.BytesFetched))
		errs = append(errs, float64(s.FetchErrors))
	}
	m["replicate.sync_s"], m["replicate.bytes"] = med(syncs), med(bytes)
	m["replicate.fetch_errors"] = sum(errs)
	return nil
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// router times the scenario router hop: the same static requests
// through Registry.ServeHTTP under /v1/{scenario}/... and straight into
// that world's handler.
func router(ctx context.Context, m map[string]float64, cfg simulation.Config, c Config) error {
	data, err := os.ReadFile(c.ScenarioSpec)
	if err != nil {
		return err
	}
	spec, err := scenario.Parse(data, c.ScenarioSpec)
	if err != nil {
		return err
	}
	reg, err := scenario.New(ctx, []scenario.Spec{spec}, scenario.Options{BaseCfg: cfg})
	if err != nil {
		return fmt.Errorf("scenario.New: %w", err)
	}
	direct := reg.World(spec.Name).Handler()
	timeOne := func(h http.Handler, path string) (float64, error) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := us(time.Since(start))
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("scenario GET %s: status %d", path, rec.Code)
		}
		return d, nil
	}
	// The first pass warms both paths; the second is timed.
	var diffs []float64
	for pass := 0; pass < 2; pass++ {
		for i, p := range c.Paths {
			if !c.Static[i] {
				continue
			}
			d0, err := timeOne(direct, "/v1"+p)
			if err != nil {
				return err
			}
			d1, err := timeOne(reg, "/v1/"+spec.Name+p)
			if err != nil {
				return err
			}
			if pass == 1 {
				diffs = append(diffs, d1-d0)
			}
		}
	}
	m["scenario.route_us"] = med(diffs)
	return nil
}
