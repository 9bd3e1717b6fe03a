package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"ipv4market/perfbench/layers"
)

// PerLayer is every per-layer metric of a traced run, with its unit.
var PerLayer = []struct{ Name, Unit string }{
	{"simulation.world_s", "s"},
	{"simulation.survey_ms", "ms"},
	{"core.utilization_s", "s"},
	{"core.rpki_series_s", "s"},
	{"delegation.infer_ms", "ms"},
	{"temporal.build_s", "s"},
	{"temporal.restore_s", "s"},
	{"temporal.at_us", "us"},
	{"temporal.timeline_us", "us"},
	{"temporal.diff_us", "us"},
	{"serve.stage.study_s", "s"},
	{"serve.stage.table1_s", "s"},
	{"serve.stage.prices_s", "s"},
	{"serve.stage.transfer_series_s", "s"},
	{"serve.stage.interrir_flows_s", "s"},
	{"serve.stage.leasing_prices_s", "s"},
	{"serve.stage.transfers_s", "s"},
	{"serve.stage.headline_s", "s"},
	{"serve.stage.leasing_s", "s"},
	{"serve.stage.delegations_s", "s"},
	{"serve.stage.utilization_s", "s"},
	{"serve.stage.rpki_s", "s"},
	{"serve.stage.temporal_s", "s"},
	{"serve.build_alloc_mb", "MiB"},
	{"serve.adopt_s", "s"},
	{"serve.handler_us.static", "us"},
	{"serve.handler_us.cached", "us"},
	{"serve.handler_us.computed", "us"},
	{"serve.lookup_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_collapsed", "count"},
	{"serve.zero_copy_file_ratio", "ratio"},
	{"serve.alloc_bytes_per_req", "B"},
	{"serve.mallocs_per_req", "count"},
	{"serve.varz_scrape_us", "us"},
	{"http.loopback_us", "us"},
	{"store.append_s", "s"},
	{"store.load_s", "s"},
	{"store.open_artifact_us", "us"},
	{"store.segment_mb", "MiB"},
	{"replicate.sync_s", "s"},
	{"replicate.bytes", "B"},
	{"replicate.publish_lag_ms", "ms"},
	{"replicate.poll_wait_ms", "ms"},
	{"replicate.fetch_errors", "count"},
	{"scenario.route_us", "us"},
	{"gen.queue_wait_ms", "ms"},
	{"gen.lateness_ms", "ms"},
	{"span.request.self_ms", "ms"},
	{"span.queue.self_ms", "ms"},
	{"span.server.self_ms", "ms"},
	{"span.body.self_ms", "ms"},
	{"span.rebuild.self_ms", "ms"},
	{"span.leader_build.self_ms", "ms"},
	{"span.publish.self_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// EndToEnd is every end-to-end metric of an untraced run, with its unit.
var EndToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"rebuild_cpu_s", "s"},
	{"publish_cpu_s", "s"},
	{"build_alloc_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"lat_p50_ms", "ms"},
}

// perLayer assembles the traced run's per-layer metrics from the
// window's spans and /varz deltas and from the in-process layer pass,
// which runs after every marketd process has stopped.
func (r *Runner) perLayer(ctx context.Context, win windowResult, cycles []cycle) error {
	m := make(map[string]float64)
	tr := &Tracer{}
	for _, res := range win.results {
		if res.Trace {
			tr.AddRequest(res)
		}
	}
	for _, c := range cycles {
		tr.AddCycle(c, win.start)
	}
	for name, v := range tr.SelfTimes() {
		m["span."+name+".self_ms"] = Median(v)
	}
	if err := tr.Write(filepath.Join(r.opts.Workdir, fmt.Sprintf("spans-%s-%d.json", r.w.Name, r.opts.Seed))); err != nil {
		return err
	}

	// The tracing overhead compares the traced and the untraced rounds
	// of the reads lat_p50_ms is taken over.
	var queue, late, plain, traced []float64
	role := measuredRole(win.targets)
	for _, res := range win.results {
		if res.Scrape || res.Err != nil {
			continue
		}
		queue = append(queue, ms(res.Sent-res.Due))
		late = append(late, ms(res.Released-res.Due))
		switch {
		case !strings.HasPrefix(win.targets[res.Target].Name, role):
		case res.Trace:
			traced = append(traced, res.Latency())
		default:
			plain = append(plain, res.Latency())
		}
	}
	m["gen.queue_wait_ms"] = Median(queue)
	m["gen.lateness_ms"] = Median(late)
	m["trace.overhead_ms"] = Median(traced) - Median(plain)

	// Leader counters over the window. On a matrix the flat /varz
	// fields describe the default scenario.
	l0, l1 := win.lv0, win.lv1
	hits, misses := l1.Cache.Hits-l0.Cache.Hits, l1.Cache.Misses-l0.Cache.Misses
	m["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["serve.cache_collapsed"] = l1.Cache.Collapsed - l0.Cache.Collapsed
	file := l1.ZeroCopy.FileReads - l0.ZeroCopy.FileReads
	reads := file + l1.ZeroCopy.MemReads - l0.ZeroCopy.MemReads + l1.ZeroCopy.Fallbacks - l0.ZeroCopy.Fallbacks
	m["serve.zero_copy_file_ratio"] = ratio(file, reads)
	reqs := l1.V1Requests() - l0.V1Requests()
	m["serve.alloc_bytes_per_req"] = ratio(l1.Process.TotalAllocBytes-l0.Process.TotalAllocBytes, reqs)
	m["serve.mallocs_per_req"] = ratio(l1.Process.Mallocs-l0.Process.Mallocs, reqs)
	fetchErrs := win.fv1.Replication.FetchErrors - win.fv0.Replication.FetchErrors

	// Build stages as the leader published them, median over cycles.
	stages := make(map[string][]float64)
	var lag []float64
	for _, c := range cycles {
		for name, s := range c.Stages {
			stages[name] = append(stages[name], s)
		}
		lag = append(lag, ms(c.FollowerServing.Sub(c.LeaderServing)))
	}
	for name, v := range stages {
		m["serve.stage."+name+"_s"] = Median(v)
	}
	m["replicate.publish_lag_ms"] = Median(lag)

	// The generator's processor cap does not apply to the layer pass,
	// whose builds use every CPU as marketd's do.
	runtime.GOMAXPROCS(runtime.NumCPU())
	paths, static := r.layerRequests()
	lm, err := layers.Run(ctx, layers.Config{
		LIRs: r.world.LIRs, Days: r.world.Days, Seed: r.world.Seed,
		Paths: paths, Static: static,
		ScenarioSpec: filepath.Join(r.opts.Data, "scenarios", "baseline.json"),
		Dir:          filepath.Join(r.dir, "layers"),
	})
	if err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	for k, v := range lm {
		m[k] = v
	}
	m["replicate.fetch_errors"] += fetchErrs
	wait := m["replicate.publish_lag_ms"] - 1000*(m["replicate.sync_s"]+m["serve.adopt_s"])
	m["replicate.poll_wait_ms"] = max(wait, 0)

	r.metrics = make(map[string]Metric)
	for _, pl := range PerLayer {
		v, ok := m[pl.Name]
		if !ok {
			r.op(fmt.Errorf("traced run produced no %s", pl.Name))
			continue
		}
		r.set(pl.Name, v, pl.Unit)
	}
	var extra []string
	for k := range m {
		if _, ok := r.metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		r.logf("%s: unlisted per-layer value %s = %g", r.w.Name, k, m[k])
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// layerRequests samples the requests the layer pass sends through each
// rung: the mix, drawn from the window's seed.
func (r *Runner) layerRequests() ([]string, []bool) {
	reqs := SampleRequests(r.opts.Seed, 2000)
	paths := make([]string, len(reqs))
	static := make([]bool, len(reqs))
	for i, q := range reqs {
		paths[i], static[i] = q.Path, Mix[q.Endpoint].Static
	}
	return paths, static
}
