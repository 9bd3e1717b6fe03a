package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ipv4market/internal/temporal"
)

// TestAsofRequestValidation pins the /v1/asof error surface: every bad
// request answers a structured JSON 400/404 whose message tells the
// client how to fix it — malformed dates name the accepted format,
// out-of-range dates name the indexed epoch.
func TestAsofRequestValidation(t *testing.T) {
	ts := httptest.NewServer(sharedServer(t).Handler())
	defer ts.Close()

	for _, tc := range []struct {
		path string
		want int
		msg  string // substring the error must carry; empty for 200s
	}{
		{"/v1/asof", http.StatusBadRequest, "date=YYYY-MM-DD"},
		{"/v1/asof?date=2019-06-01", http.StatusBadRequest, "prefix"},
		{"/v1/asof?prefix=10.0.0.0/8", http.StatusBadRequest, "date"},
		{"/v1/asof?date=06/01/2019&prefix=10.0.0.0/8", http.StatusBadRequest, "want YYYY-MM-DD"},
		{"/v1/asof?date=2019-13-40&prefix=10.0.0.0/8", http.StatusBadRequest, "want YYYY-MM-DD"},
		{"/v1/asof?date=2030-01-01&prefix=10.0.0.0/8", http.StatusBadRequest, "outside the indexed epoch [2005-01-01, 2020-07-01)"},
		{"/v1/asof?date=2004-12-31&prefix=10.0.0.0/8", http.StatusBadRequest, "outside the indexed epoch"},
		// The epoch is half-open: End itself is out, End-1 is in.
		{"/v1/asof?date=2020-07-01&prefix=10.0.0.0/8", http.StatusBadRequest, "outside the indexed epoch"},
		{"/v1/asof?date=2020-06-30&prefix=10.0.0.0/8", http.StatusOK, ""},
		{"/v1/asof?date=2005-01-01&prefix=10.0.0.0/8", http.StatusOK, ""},
		{"/v1/asof?date=2019-06-01&prefix=banana", http.StatusBadRequest, `prefix "banana"`},
		{"/v1/asof?date=2019-06-01&prefix=10.0.0.0/8&gen=abc", http.StatusBadRequest, "positive generation ID"},
		{"/v1/asof?date=2019-06-01&prefix=10.0.0.0/8&gen=3", http.StatusNotFound, "no durable store"},
		{"/v1/asof/timeline", http.StatusBadRequest, "prefix"},
		{"/v1/asof/timeline?prefix=nope", http.StatusBadRequest, `prefix "nope"`},
		{"/v1/asof/diff", http.StatusBadRequest, "from=YYYY-MM-DD"},
		{"/v1/asof/diff?from=2013-01-01", http.StatusBadRequest, "to"},
		{"/v1/asof/diff?from=2013-01-01&to=garbage", http.StatusBadRequest, "want YYYY-MM-DD"},
		{"/v1/asof/diff?from=2014-01-01&to=2013-01-01", http.StatusBadRequest, "after"},
		{"/v1/asof/diff?from=2013-01-01&to=2013-01-01", http.StatusOK, ""}, // empty window, not an error
	} {
		resp, body := get(t, ts, tc.path)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.path, resp.StatusCode, tc.want, body)
			continue
		}
		if tc.msg == "" {
			continue
		}
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &doc); err != nil || doc.Error == "" {
			t.Errorf("%s: error body %s is not a structured {\"error\": ...} document", tc.path, body)
			continue
		}
		if !strings.Contains(doc.Error, tc.msg) {
			t.Errorf("%s: error %q does not mention %q", tc.path, doc.Error, tc.msg)
		}
	}
}

// TestAsofETagNotModified: as-of answers are computed, but they carry
// strong ETags like any artifact, so revalidation gets a 304.
func TestAsofETagNotModified(t *testing.T) {
	ts := httptest.NewServer(sharedServer(t).Handler())
	defer ts.Close()

	for _, path := range []string{
		"/v1/asof?date=2019-06-01&prefix=185.0.0.0/16",
		"/v1/asof/timeline?prefix=185.0.0.0/16",
		"/v1/asof/diff?from=2015-01-01&to=2015-12-31",
	} {
		resp, _ := get(t, ts, path)
		etag := resp.Header.Get("ETag")
		if resp.StatusCode != http.StatusOK || etag == "" {
			t.Fatalf("%s: status=%d etag=%q", path, resp.StatusCode, etag)
		}
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", etag)
		resp2, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusNotModified {
			t.Errorf("%s: If-None-Match %s answered %d, want 304", path, etag, resp2.StatusCode)
		}
	}
}

// asofHolderDoc mirrors the asofView holder JSON for decoding.
type asofHolderDoc struct {
	Block string `json:"block"`
	Org   string `json:"org"`
	RIR   string `json:"rir"`
	Since string `json:"since"`
	Until string `json:"until"`
	Via   string `json:"via"`
}

type asofDelegationDoc struct {
	Parent string `json:"parent"`
	Child  string `json:"child"`
	FromAS uint32 `json:"from_as"`
	ToAS   uint32 `json:"to_as"`
	Start  string `json:"start"`
	End    string `json:"end"`
}

type asofDoc struct {
	Prefix   string              `json:"prefix"`
	Date     string              `json:"date"`
	Holder   *asofHolderDoc      `json:"holder"`
	Exact    []asofDelegationDoc `json:"delegations_exact"`
	Covering []asofDelegationDoc `json:"delegations_covering"`
	Covered  []asofDelegationDoc `json:"delegations_covered"`
	Prices   *struct {
		Quarter    string  `json:"quarter"`
		PriceLevel float64 `json:"price_level"`
	} `json:"prices"`
}

// delegKeys canonicalizes a delegation list (either representation) to a
// sorted multiset of strings for comparison.
func delegKeys(docs []asofDelegationDoc, spans []temporal.DelegationSpan) []string {
	var keys []string
	for _, d := range docs {
		keys = append(keys, d.Parent+"|"+d.Child+"|"+d.Start+"|"+d.End)
	}
	for _, s := range spans {
		end := ""
		if !s.End.IsZero() {
			end = fmtDate(s.End)
		}
		keys = append(keys, s.Parent.String()+"|"+s.Child.String()+"|"+fmtDate(s.Start)+"|"+end)
	}
	sort.Strings(keys)
	return keys
}

// TestAsofMatchesNaiveReplay is the HTTP-level property test: for
// sampled (prefix, date) pairs spanning event boundaries of the real
// served world, the /v1/asof response agrees with a naive linear replay
// of the snapshot's event history (temporal.NaiveAt). The exhaustive
// every-boundary sweep lives in internal/temporal; this test pins the
// serving path on top — parameter plumbing, view rendering, caching.
func TestAsofMatchesNaiveReplay(t *testing.T) {
	srv := sharedServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ix := srv.Snapshot().Temporal
	if ix == nil {
		t.Fatal("snapshot has no temporal index")
	}
	in := ix.Input()
	events := ix.Diff(in.Start.AddDate(0, 0, -1), in.End)
	if len(events) == 0 {
		t.Fatal("served world has no events")
	}

	checked := 0
	for i := 0; i < len(events); i += 1 + len(events)/150 {
		e := events[i]
		for _, off := range []int{-1, 0} {
			d := e.Date.AddDate(0, 0, off)
			if d.Before(in.Start) || !d.Before(in.End) {
				continue
			}
			path := "/v1/asof?date=" + fmtDate(d) + "&prefix=" + e.Prefix.String()
			resp, body := get(t, ts, path)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d body %s", path, resp.StatusCode, body)
			}
			var doc asofDoc
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("%s: decode: %v", path, err)
			}
			want := temporal.NaiveAt(in, e.Prefix, d)
			compareAsofDoc(t, path, doc, want)
			checked++
		}
	}
	t.Logf("checked %d (prefix, date) pairs against naive replay", checked)
	if checked < 100 {
		t.Fatalf("only %d pairs checked; sample too thin to mean anything", checked)
	}
}

// compareAsofDoc asserts one decoded /v1/asof response equals a naive
// replay's answer.
func compareAsofDoc(t *testing.T, path string, doc asofDoc, want temporal.PointResult) {
	t.Helper()
	if (doc.Holder == nil) != (want.Holder == nil) {
		t.Errorf("%s: holder present=%v, naive replay says %v", path, doc.Holder != nil, want.Holder != nil)
		return
	}
	if h := want.Holder; h != nil {
		until := ""
		if !h.Until.IsZero() {
			until = fmtDate(h.Until)
		}
		if doc.Holder.Block != h.Block.String() || doc.Holder.Org != h.Org ||
			doc.Holder.RIR != h.RIR.String() || doc.Holder.Since != fmtDate(h.Since) ||
			doc.Holder.Until != until || doc.Holder.Via != string(h.Via) {
			t.Errorf("%s: holder %+v does not match naive %+v", path, *doc.Holder, *h)
		}
	}
	for _, cls := range []struct {
		name string
		got  []asofDelegationDoc
		want []temporal.DelegationSpan
	}{
		{"exact", doc.Exact, want.Exact},
		{"covering", doc.Covering, want.Covering},
		{"covered", doc.Covered, want.Covered},
	} {
		g, w := delegKeys(cls.got, nil), delegKeys(nil, cls.want)
		if len(g) != len(w) {
			t.Errorf("%s: %d %s delegations, naive replay has %d", path, len(g), cls.name, len(w))
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s: %s delegation %q, naive replay %q", path, cls.name, g[i], w[i])
			}
		}
	}
	if doc.Prices == nil || doc.Prices.Quarter == "" || doc.Prices.PriceLevel <= 0 {
		t.Errorf("%s: price context missing or empty: %+v", path, doc.Prices)
	}
}

// TestAsofPinnedGeneration: after a reseeded rebuild moves the current
// snapshot to generation 2, ?gen=1 as-of queries are computed from
// generation 1's restored temporal state — byte- and ETag-identical to
// what generation 1 served live — and pre-temporal stores answer 404,
// not garbage.
func TestAsofPinnedGeneration(t *testing.T) {
	cfg := testConfig()
	srv, err := New(cfg, Options{Store: openStore(t, t.TempDir())})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	paths := []string{
		"/v1/asof?date=2019-06-01&prefix=185.0.0.0/16",
		"/v1/asof/timeline?prefix=185.0.0.0/16",
		"/v1/asof/diff?from=2015-01-01&to=2015-12-31",
	}
	type cached struct {
		etag string
		body []byte
	}
	gen1 := make(map[string]cached)
	for _, path := range paths {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d before rebuild", path, resp.StatusCode)
		}
		gen1[path] = cached{resp.Header.Get("ETag"), body}
	}

	if !srv.RebuildAsync(srv.rebuildConfig(cfg.Seed+99, true)) {
		t.Fatal("rebuild not started")
	}
	srv.Wait()
	if got := srv.Snapshot().Gen; got != 2 {
		t.Fatalf("serving generation %d after rebuild, want 2", got)
	}

	for _, path := range paths {
		resp, body := get(t, ts, path+"&gen=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s&gen=1: status %d body %s", path, resp.StatusCode, body)
		}
		if !bytes.Equal(body, gen1[path].body) {
			t.Errorf("%s&gen=1: body differs from what generation 1 served live", path)
		}
		if got := resp.Header.Get("ETag"); got != gen1[path].etag {
			t.Errorf("%s&gen=1: ETag %q, want %q", path, got, gen1[path].etag)
		}
	}

	// The reseeded world answers differently live — prove the pin is not
	// silently reading current state.
	live, liveBody := get(t, ts, "/v1/asof/diff?from=2015-01-01&to=2015-12-31")
	if live.StatusCode != http.StatusOK {
		t.Fatalf("live diff after rebuild: %d", live.StatusCode)
	}
	if bytes.Equal(liveBody, gen1["/v1/asof/diff?from=2015-01-01&to=2015-12-31"].body) {
		t.Fatal("reseeded rebuild produced an identical diff document; test cannot distinguish generations")
	}
}

// TestPinnedGenerationRestoresIndexLazily: a static ?gen=N pin decodes
// the generation's artifacts but leaves its temporal index as the stored
// record; the first asof pins restore it once, shared by concurrent
// requests, and answer byte- and ETag-identically to what the generation
// served live.
func TestPinnedGenerationRestoresIndexLazily(t *testing.T) {
	cfg := testConfig()
	srv, err := New(cfg, Options{Store: openStore(t, t.TempDir())})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const asof = "/v1/asof?date=2019-06-01&prefix=185.0.0.0/16"
	live, liveBody := get(t, ts, asof)
	if live.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", asof, live.StatusCode)
	}
	if !srv.RebuildAsync(srv.rebuildConfig(cfg.Seed+99, true)) {
		t.Fatal("rebuild not started")
	}
	srv.Wait()

	cachedGen1 := func() *pinnedGen {
		srv.gens.mu.Lock()
		defer srv.gens.mu.Unlock()
		return srv.gens.entries[1]
	}
	if resp, body := get(t, ts, "/v1/table1?gen=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/table1?gen=1: status %d body %s", resp.StatusCode, body)
	}
	pg := cachedGen1()
	if pg == nil {
		t.Fatal("static pin did not cache generation 1")
	}
	if pg.temporal != nil || pg.record == nil {
		t.Fatal("static pin restored the temporal index")
	}

	type answer struct {
		status int
		etag   string
		body   []byte
		err    error
	}
	answers := make([]answer, 4)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func(a *answer) {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + asof + "&gen=1")
			if err != nil {
				a.err = err
				return
			}
			defer resp.Body.Close()
			a.status, a.etag = resp.StatusCode, resp.Header.Get("ETag")
			a.body, a.err = io.ReadAll(resp.Body)
		}(&answers[i])
	}
	wg.Wait()
	for i, a := range answers {
		switch {
		case a.err != nil:
			t.Fatalf("pin %d: %v", i, a.err)
		case a.status != http.StatusOK:
			t.Fatalf("pin %d: status %d body %s", i, a.status, a.body)
		case !bytes.Equal(a.body, liveBody):
			t.Errorf("pin %d: body differs from what generation 1 served live", i)
		case a.etag != live.Header.Get("ETag"):
			t.Errorf("pin %d: ETag %q, want %q", i, a.etag, live.Header.Get("ETag"))
		}
	}
	if got := cachedGen1(); got != pg || pg.temporal == nil || pg.record != nil {
		t.Error("asof pins did not restore the cached generation's index in place")
	}
}

// TestAsofDeterministicAcrossRestore: Restore(Record()) answers every
// query the original index does, byte-for-byte, at the serving layer's
// view granularity — the contract that lets followers and warm starts
// share ETags with the builder.
func TestAsofRestoreServesIdenticalViews(t *testing.T) {
	snap, err := BuildSnapshotOpts(testConfig(), BuildOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := snap.Temporal.Record()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := temporal.Restore(rec)
	if err != nil {
		t.Fatal(err)
	}
	d := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	in := snap.Temporal.Input()
	for i := 0; i < len(in.Allocations); i += 1 + len(in.Allocations)/64 {
		p := in.Allocations[i].Prefix
		a, errA := newArtifact(viewAsofPoint(snap.Temporal, 0, p, d), nil)
		b, errB := newArtifact(viewAsofPoint(restored, 0, p, d), nil)
		if errA != nil || errB != nil {
			t.Fatalf("render: %v / %v", errA, errB)
		}
		if a.jsonETag != b.jsonETag || !bytes.Equal(a.json, b.json) {
			t.Errorf("prefix %v: restored index renders different bytes", p)
		}
	}
}
