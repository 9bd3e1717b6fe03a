package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestQuantileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{19, 0.5, false},
		{20, 0.5, true},
	} {
		if _, ok := Quantile(seq(tc.n), tc.q); ok != tc.ok {
			t.Errorf("Quantile(%d samples, %v): ok %v, want %v", tc.n, tc.q, ok, tc.ok)
		}
	}
	if v, _ := Quantile([]float64{3, 1, 2}, 0.5); v != 2 {
		t.Errorf("median of 1,2,3 = %v, want 2", v)
	}
}

func TestWindowP99AndMiddleMean(t *testing.T) {
	if _, _, ok := windowP99(make([]float64, 999)); ok {
		t.Error("999 samples supported a p99")
	}
	// A stall confined to one of four windows leaves the result at the
	// other windows' p99.
	v := make([]float64, 4000)
	for i := range v {
		v[i] = 1
	}
	for i := 0; i < 200; i++ {
		v[i] = 500
	}
	p99, windows, ok := windowP99(v)
	if !ok || windows != 4 || p99 != 1 {
		t.Errorf("windowP99 = %v over %d windows (ok %v), want 1 over 4", p99, windows, ok)
	}
	if m := MiddleMean([]float64{100, 1, 2, 3, 4, 5, 6, -100}); m != 3.5 {
		t.Errorf("MiddleMean = %v, want 3.5", m)
	}
}

func TestSameSeedSameSequence(t *testing.T) {
	w := Workload{}
	a := Schedule(w.requests(7, 600), 300, 2, true)
	b := Schedule(w.requests(7, 600), 300, 2, true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	c := Schedule(w.requests(8, 600), 300, 2, true)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !reflect.DeepEqual(SampleRequests(3, 500), SampleRequests(3, 500)) {
		t.Fatal("the same seed gave different request samples")
	}
	scrapes := 0
	for _, j := range a {
		if j.Scrape {
			scrapes++
		}
	}
	if scrapes != 2 {
		t.Errorf("%d /varz scrapes in 2 s, want 2", scrapes)
	}
}

func TestProbeWorkloadsReadOneStaticEndpoint(t *testing.T) {
	for _, w := range Workloads {
		if w.Probe == "" {
			continue
		}
		for _, q := range w.requests(1, 50) {
			if e := Mix[q.Endpoint]; e.Name != w.Probe || !e.Static {
				t.Fatalf("%s: probe request %s from endpoint %s, want static %s", w.Name, q.Path, e.Name, w.Probe)
			}
		}
		if w.Scrape {
			t.Errorf("%s: a probe workload scrapes /varz", w.Name)
		}
	}
}

func TestTracedRoundsShareTargets(t *testing.T) {
	// Four targets alternate leader and follower: tracing every other
	// job would trace only the follower.
	jobs := Schedule(Workload{}.requests(1, 800), 400, 4, true)
	traceAlternateRounds(jobs, 4)
	var traced, plain [4]int
	for _, j := range jobs {
		switch {
		case j.Scrape:
		case j.Trace:
			traced[j.Target]++
		default:
			plain[j.Target]++
		}
	}
	if traced != plain || traced[0] != 100 {
		t.Errorf("traced per target %v, untraced %v; want 100 of each on every target", traced, plain)
	}
}

// fakeServer answers every static path with a fixed body, computed
// paths with a JSON object, and lets a test override single paths.
type fakeServer struct {
	mu       sync.Mutex
	override map[string]http.HandlerFunc
}

func staticBody(path string) string { return "{\"path\": \"" + path + "\"}\n" }

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	h := f.override[r.URL.RequestURI()]
	f.mu.Unlock()
	if h != nil {
		h(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", `"x"`)
	io.WriteString(w, staticBody(strings.TrimPrefix(r.URL.RequestURI(), "/v1")))
}

func fakeTarget(t *testing.T, f *fakeServer) (Target, map[string][]byte) {
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	ref := make(map[string][]byte)
	for _, p := range StaticPaths {
		ref[p] = []byte(staticBody(p))
	}
	return Target{Name: "leader/default", Base: srv.URL, Prefix: "/v1"}, ref
}

func staticJob(due time.Duration, path string) Job {
	for i, e := range Mix {
		if e.Static && "/"+e.Name == path {
			return Job{Due: due, Req: Request{Endpoint: i, Path: path}}
		}
	}
	panic("no static endpoint " + path)
}

func TestStallShowsAsLatencyOnLaterRequests(t *testing.T) {
	stall := make(chan struct{})
	f := &fakeServer{override: map[string]http.HandlerFunc{
		"/v1/headline": func(w http.ResponseWriter, r *http.Request) {
			<-stall
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, staticBody("/headline"))
		},
	}}
	tg, ref := fakeTarget(t, f)
	jobs := []Job{staticJob(0, "/headline")}
	for i := 1; i <= 10; i++ {
		jobs = append(jobs, staticJob(time.Duration(i)*10*time.Millisecond, "/table1"))
	}
	time.AfterFunc(300*time.Millisecond, func() { close(stall) })
	g := &Generator{Targets: []Target{tg}, Senders: 1,
		Check: NewBodyCheck([]Target{tg}, map[string]map[string][]byte{tg.Name: ref})}
	res := g.Run(context.Background(), jobs)
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Req.Path, r.Err)
		}
	}
	// The job due at 50 ms waited behind the stalled request, which
	// finished at about 300 ms: its latency counts that wait.
	if lat := res[5].Latency(); lat < 200 {
		t.Errorf("latency of a request queued behind a 300 ms stall = %.1f ms, want >= 200", lat)
	}
	if wait := ms(res[5].Sent - res[5].Due); wait < 200 {
		t.Errorf("queue wait = %.1f ms, want >= 200", wait)
	}
}

func TestErrorsAndInvalidBodiesFail(t *testing.T) {
	f := &fakeServer{override: map[string]http.HandlerFunc{
		"/v1/table1": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		},
		"/v1/headline": func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "{\"path\": \"tampered\"}\n")
		},
	}}
	tg, ref := fakeTarget(t, f)
	jobs := []Job{staticJob(0, "/table1"), staticJob(time.Millisecond, "/headline")}
	for i := 2; i < 1000; i++ {
		jobs = append(jobs, staticJob(time.Duration(i)*time.Millisecond, "/leasing"))
	}
	g := &Generator{Targets: []Target{tg}, Senders: 2,
		Check: NewBodyCheck([]Target{tg}, map[string]map[string][]byte{tg.Name: ref})}
	res := g.Run(context.Background(), jobs)
	if res[0].Err == nil || res[1].Err == nil {
		t.Fatalf("500 and tampered body passed: %v, %v", res[0].Err, res[1].Err)
	}
	for i := 0; i < 8; i++ { // 10 failures in 1000: enough to miss p99
		res[2+i].Err = fmt.Errorf("injected")
	}
	r := &Runner{log: io.Discard, w: Workload{Name: "test"}, metrics: map[string]Metric{}}
	p99 := r.readMetrics(res, []Target{tg})
	if r.failed != 10 || r.attempted != len(res) {
		t.Errorf("failed %d of %d, want 10 of %d", r.failed, r.attempted, len(res))
	}
	if p99 <= sloP99 {
		t.Errorf("p99 %.1f ms with 1%% failures, want an SLO miss", p99)
	}
	if out := r.output(); out.Correct {
		t.Error("a run with failures reported correct")
	}
}

func TestLadderStopsAtFirstMiss(t *testing.T) {
	// The server slows down once the first rung is served, so the second
	// rung misses the p99 limit and the ladder stops. The misses are
	// unfinished or late requests: they fail the rung, not the run.
	var mu sync.Mutex
	var served int
	f := &fakeServer{}
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served++
		n := served
		mu.Unlock()
		if n > rungRequests {
			time.Sleep(40 * time.Millisecond)
		}
		f.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(slow)
	defer srv.Close()
	tg := Target{Name: "leader/default", Base: srv.URL, Prefix: "/v1"}
	g := &Generator{Targets: []Target{tg}, Senders: 2, Check: staticOnly{}}
	r := &Runner{log: io.Discard, opts: Options{Seed: 1}, metrics: map[string]Metric{}}
	rungs := r.ladder(context.Background(), g, 600)
	if len(rungs) != 2 || !rungs[0].Pass || rungs[1].Pass {
		t.Fatalf("rungs %+v, want a pass then a miss", rungs)
	}
	if got := maxRPSAtSLO(rungs); got < 500 || got > 700 {
		t.Errorf("max_rps_at_slo %.1f, want the first rung's achieved rate near 600", got)
	}
	if r.failed != 0 {
		t.Errorf("an overloaded rung failed %d operations, want 0: %v", r.failed, r.firstErrs)
	}
}

func TestLadderCountsInvalidResponses(t *testing.T) {
	f := &fakeServer{override: map[string]http.HandlerFunc{}}
	for _, p := range StaticPaths {
		f.override["/v1"+p] = func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}
	tg, _ := fakeTarget(t, f)
	g := &Generator{Targets: []Target{tg}, Senders: 2, Check: staticOnly{}}
	r := &Runner{log: io.Discard, opts: Options{Seed: 1}, metrics: map[string]Metric{}}
	if rungs := r.ladder(context.Background(), g, 2000); len(rungs) != 1 || rungs[0].Pass {
		t.Fatalf("rungs %+v, want one miss", rungs)
	}
	if r.failed == 0 || r.output().Correct {
		t.Error("500s on the ladder did not fail the run")
	}
}

// staticOnly accepts any 200 response.
type staticOnly struct{}

func (staticOnly) Check(j Job, status int, _ http.Header, _ []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	return nil
}

func TestLateGeneratorInvalidatesRun(t *testing.T) {
	res := make([]Result, 1000)
	for i := range res {
		due := time.Duration(i) * time.Millisecond
		res[i] = Result{Job: Job{Due: due}, Released: due + 30*time.Millisecond, Done: due + 31*time.Millisecond}
	}
	r := &Runner{log: io.Discard, w: Workload{Name: "test"}, metrics: map[string]Metric{}}
	r.readMetrics(res, []Target{{Name: "leader/default"}})
	if r.failed != 1 || r.output().Correct {
		t.Errorf("a generator 30 ms late: %d failures, correct %v; want the run failed", r.failed, r.output().Correct)
	}
}

func TestGoldenMismatchFailsTheRun(t *testing.T) {
	f := &fakeServer{}
	leader := httptest.NewServer(f)
	defer leader.Close()
	follower := httptest.NewServer(f)
	defer follower.Close()
	good := make(map[string]string)
	for _, p := range StaticPaths {
		good[p] = sha256Hex([]byte(staticBody(p)))
	}
	topo := &Topology{Leader: &Proc{Base: leader.URL}, Follower: &Proc{Base: follower.URL}, Scenarios: []string{"default"}}
	newRunner := func(hashes map[string]string) *Runner {
		return &Runner{log: io.Discard, golden: &Golden{Single: hashes},
			coldETags: map[string]map[string]string{}, metrics: map[string]Metric{}}
	}
	r := newRunner(good)
	r.verify(context.Background(), topo)
	if !r.output().Correct {
		t.Fatalf("matching golden hashes failed: %v", r.firstErrs)
	}
	bad := make(map[string]string)
	for k, v := range good {
		bad[k] = v
	}
	bad["/table1"] = strings.Repeat("0", 64)
	r = newRunner(bad)
	r.verify(context.Background(), topo)
	if r.output().Correct || r.failed == 0 {
		t.Fatal("a corrupted golden hash did not fail the run")
	}
}

func TestSelfTime(t *testing.T) {
	tr := &Tracer{}
	root := tr.Add("rebuild", 1, 0, 0, 10*time.Millisecond)
	tr.Add("leader_build", 1, root, 0, 6*time.Millisecond)
	tr.Add("publish", 1, root, 5*time.Millisecond, 9*time.Millisecond)
	got := tr.SelfTimes()
	if v := got["rebuild"][0]; v < 0.999 || v > 1.001 {
		t.Errorf("rebuild self time %.3f ms, want 1 (10 minus the 9 ms its children cover)", v)
	}
	if v := got["publish"][0]; v < 3.999 || v > 4.001 {
		t.Errorf("publish self time %.3f ms, want 4", v)
	}
}

// CPUSeconds counts time the process's threads run and not time they
// sleep.
func TestCPUSecondsCountsRunningNotSleeping(t *testing.T) {
	self := &Proc{Name: "self", cmd: &exec.Cmd{Process: &os.Process{Pid: os.Getpid()}}}
	read := func() float64 {
		v, err := self.CPUSeconds()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	const spin = 300 * time.Millisecond
	c0 := read()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for end := time.Now().Add(spin); time.Now().Before(end); {
			}
		}()
	}
	wg.Wait()
	c1 := read()
	time.Sleep(spin)
	c2 := read()
	// A busy guest may run the spinners for less than the wall time,
	// but not for under a third of it.
	if d := c1 - c0; d < spin.Seconds()/3 {
		t.Errorf("spinning for %v grew CPU time by %.3f s", spin, d)
	}
	if d := c2 - c1; d > spin.Seconds()/3 {
		t.Errorf("sleeping for %v grew CPU time by %.3f s", spin, d)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the workloads and metrics this command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range Workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	pairs := func(v []struct{ Name, Unit string }) string { return fmt.Sprint(v) }
	if pairs(doc.EndToEnd) != pairs(EndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, want %v", doc.EndToEnd, EndToEnd)
	}
	if pairs(doc.PerLayer) != pairs(PerLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, want %v", doc.PerLayer, PerLayer)
	}
}
