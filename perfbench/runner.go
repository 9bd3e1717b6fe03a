package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Runner executes one workload run and collects its metrics.
type Runner struct {
	opts    Options
	w       Workload
	senders int
	log     io.Writer
	world   WorldConfig
	golden  *Golden // nil when the world seed is not the golden one
	dir     string

	attempted, failed int
	firstErrs         []string
	coldETags         map[string]map[string]string
	metrics           map[string]Metric
}

func newRunner(o Options, w Workload, senders int, log io.Writer) (*Runner, error) {
	g, err := loadGolden(filepath.Join(o.Data, "golden.json"))
	if err != nil {
		return nil, err
	}
	r := &Runner{opts: o, w: w, senders: senders, log: log, world: g.World, golden: g,
		coldETags: make(map[string]map[string]string), metrics: make(map[string]Metric)}
	if o.WorldSeed != 0 && o.WorldSeed != g.World.Seed {
		r.world.Seed, r.golden = o.WorldSeed, nil
	}
	if err := os.MkdirAll(o.Workdir, 0o755); err != nil {
		return nil, err
	}
	r.dir, err = os.MkdirTemp(o.Workdir, "run-")
	if err != nil {
		return nil, err
	}
	return r, nil
}

// op counts one checked operation and records its failure, if any.
func (r *Runner) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.firstErrs) < 10 {
			r.firstErrs = append(r.firstErrs, err.Error())
		}
		fmt.Fprintln(r.log, "perfbench: FAIL:", err)
	}
}

func (r *Runner) set(name string, v float64, unit string) {
	r.metrics[name] = Metric{Value: v, Unit: unit}
}

func (r *Runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "perfbench: "+format+"\n", args...)
}

// Run executes the workload's phases and returns the result.
func (r *Runner) Run(ctx context.Context) (Output, error) {
	// Set-up: cold boots of the whole topology; the last one stays up.
	var t *Topology
	defer func() { t.Stop() }()
	var setupS []float64
	for i := 0; i < setups; i++ {
		t.Stop()
		var d time.Duration
		var err error
		t, d, err = r.boot(ctx, i)
		r.op(err)
		if err != nil {
			return Output{}, err
		}
		setupS = append(setupS, d.Seconds())
	}
	r.set("setup_s", Median(setupS), "s")
	r.logf("%s: setup_s %v", r.w.Name, setupS)

	// Reference bodies for the generator's static-body checks, verified
	// against the golden hashes and the leader's ETags.
	arts := r.verify(ctx, t)
	if r.failed > 0 {
		return r.output(), nil
	}

	win, err := r.window(ctx, t, arts)
	if err != nil {
		return Output{}, err
	}
	rss, err := t.Leader.PeakRSSMB()
	if err != nil {
		return Output{}, err
	}
	r.set("peak_rss_mb", rss, "MiB")

	// The refresh cycles follow the idle window directly, before the
	// ladder's overload can leave the leader with a different heap.
	cycles := win.cycles
	for i := 0; i < r.w.Refresh; i++ {
		c, err := r.rebuildCycle(ctx, t)
		r.op(err)
		if err != nil {
			return Output{}, err
		}
		cycles = append(cycles, c)
		r.verify(ctx, t)
	}
	if r.w.Ladder && !r.opts.Trace {
		rungs := r.ladder(ctx, r.generator(win.targets, arts), rungStep*r.w.ReadRate)
		r.logf("%s: max_rps_at_slo %.1f", r.w.Name, maxRPSAtSLO(rungs))
	}
	if len(cycles) == 0 {
		return Output{}, fmt.Errorf("%s: no rebuild cycles measured", r.w.Name)
	}
	var rebuildS, publishS, rebuildCPU, publishCPU, allocMB []float64
	for _, c := range cycles {
		rebuildS = append(rebuildS, c.LeaderServing.Sub(c.Trigger).Seconds())
		publishS = append(publishS, c.FollowerServing.Sub(c.Trigger).Seconds())
		rebuildCPU = append(rebuildCPU, c.LeaderCPU)
		publishCPU = append(publishCPU, c.PairCPU)
		allocMB = append(allocMB, c.AllocBytes/(1<<20))
	}
	// The gated rebuild and publish costs are CPU seconds, which leave
	// out the time the host's hypervisor gives the guest's vCPUs to other
	// tenants; the wall times, which take that time in, are logged.
	r.set("rebuild_cpu_s", Median(rebuildCPU), "s")
	r.set("publish_cpu_s", Median(publishCPU), "s")
	r.set("build_alloc_mb", Median(allocMB), "MiB")
	r.logf("%s: %d rebuild cycles: rebuild_cpu_s %.3f publish_cpu_s %.3f (medians of %.3f and %.3f)", r.w.Name, len(cycles),
		Median(rebuildCPU), Median(publishCPU), rebuildCPU, publishCPU)
	r.logf("%s: rebuild_s %.3f publish_s %.3f (medians of %.3f and %.3f)", r.w.Name,
		Median(rebuildS), Median(publishS), rebuildS, publishS)

	var restartS []float64
	for i := 0; i < restarts; i++ {
		d, err := r.restart(ctx, t, i == 0)
		r.op(err)
		if err != nil {
			return Output{}, err
		}
		restartS = append(restartS, d.Seconds())
	}
	r.logf("%s: restart_s %.3f (interquartile mean of %v)", r.w.Name, MiddleMean(restartS), restartS)
	if r.opts.Trace {
		t.Stop()
		t = nil
		if err := r.perLayer(ctx, win, cycles); err != nil {
			return Output{}, err
		}
	}
	return r.output(), nil
}

func (r *Runner) output() Output {
	out := Output{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	if r.attempted > 0 {
		r.logf("%s: error_frac %.6f (%d of %d)", r.w.Name, float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	return out
}

// windowResult is what the measured window produced.
type windowResult struct {
	start   time.Time
	targets []Target
	cycles  []cycle
	// results are the window's reads; in a traced run every other round
	// over the targets is traced.
	results []Result
	// leader and follower /varz at the window's start and end.
	lv0, lv1, fv0, fv1 Varz
}

// generator returns a load generator over targets that checks static
// bodies against the leader's verified artifacts.
func (r *Runner) generator(targets []Target, arts map[string]Artifacts) *Generator {
	ref := make(map[string]map[string][]byte, len(targets))
	for _, tg := range targets {
		ref[tg.Name] = arts[tg.Name].Body
	}
	return &Generator{Targets: targets, Senders: r.senders, Check: NewBodyCheck(targets, ref)}
}

// window runs the measured window: reads at the workload's rate while
// rebuild cycles run back to back (when the workload has them).
func (r *Runner) window(ctx context.Context, t *Topology, arts map[string]Artifacts) (windowResult, error) {
	wr := windowResult{start: time.Now(), targets: t.targets(r.w.ReadOn)}
	dur := time.Duration(r.opts.Seconds) * time.Second
	n := int(r.w.ReadRate * dur.Seconds())
	jobs := Schedule(r.w.requests(r.opts.Seed, n), r.w.ReadRate, len(wr.targets), r.w.Scrape)
	if r.opts.Trace {
		traceAlternateRounds(jobs, len(wr.targets))
	}
	gen := r.generator(wr.targets, arts)
	var err error
	if wr.lv0, err = ReadVarz(ctx, t.Leader.Base); err != nil {
		return wr, err
	}
	if wr.fv0, err = ReadVarz(ctx, t.Follower.Base); err != nil {
		return wr, err
	}

	done := make(chan []Result, 1)
	go func() { done <- gen.Run(ctx, jobs) }()
	var cycErr error
	if r.w.Cycles {
		end := time.Now().Add(dur)
		for time.Now().Before(end) {
			c, err := r.rebuildCycle(ctx, t)
			r.op(err)
			if err != nil {
				cycErr = err
				break
			}
			wr.cycles = append(wr.cycles, c)
			r.verify(ctx, t)
		}
	}
	wr.results = <-done
	if cycErr != nil {
		return wr, cycErr
	}
	if wr.lv1, err = ReadVarz(ctx, t.Leader.Base); err != nil {
		return wr, err
	}
	if wr.fv1, err = ReadVarz(ctx, t.Follower.Base); err != nil {
		return wr, err
	}
	r.readMetrics(wr.results, wr.targets)
	return wr, nil
}

// traceAlternateRounds marks every other round of mix requests over the
// targets as traced, so the traced and the untraced requests share the
// seed, the load, the targets and the build phases, and differ only in
// the tracing.
func traceAlternateRounds(jobs []Job, targets int) {
	k := 0
	for i := range jobs {
		if jobs[i].Scrape {
			continue
		}
		jobs[i].Trace = (k/targets)%2 == 1
		k++
	}
}

// measuredRole is the target-name prefix of the reads lat_p50_ms is
// taken over: the leader's, where builds compete with serving, or the
// follower's where it alone takes reads.
func measuredRole(targets []Target) string {
	for _, tg := range targets {
		if strings.HasPrefix(tg.Name, "leader/") {
			return "leader/"
		}
	}
	return "follower/"
}

// maxLateness bounds the generator's median dispatch lateness (ms);
// timer granularity alone gives about half a millisecond.
const maxLateness = 5.0

// readMetrics counts every request of a window as an operation and
// records the median read latency as lat_p50_ms: on the leader, where
// builds compete with serving, or on the follower where it alone takes
// reads. It logs that p99 and the other process's quantiles, each only
// when at least minTail samples lie beyond it, and returns the p99 (0
// when unsupported).
func (r *Runner) readMetrics(results []Result, targets []Target) float64 {
	var lat, other, late []float64
	role := measuredRole(targets)
	for _, res := range results {
		r.op(res.Err)
		if res.Scrape {
			continue
		}
		l := res.Latency()
		if res.Err != nil {
			l = 1e9 // a failure misses any latency limit
		}
		if strings.HasPrefix(targets[res.Target].Name, role) {
			lat = append(lat, l)
		} else {
			other = append(other, l)
		}
		late = append(late, ms(res.Released-res.Due))
	}
	p50, ok := Quantile(lat, 0.5)
	if !ok {
		r.op(fmt.Errorf("%d %s read samples cannot support a median", len(lat), strings.TrimSuffix(role, "/")))
	}
	r.set("lat_p50_ms", p50, "ms")
	p99, windows, ok99 := windowP99(lat)
	r.logf("%s: %s reads: %d, p50 %.3f ms, %s", r.w.Name, strings.TrimSuffix(role, "/"), len(lat), p50, tail(p99, windows, ok99))
	if len(other) > 0 {
		o50, _ := Quantile(other, 0.5)
		o99, ow, ook := windowP99(other)
		r.logf("%s: other process's reads: %d, p50 %.3f ms, %s", r.w.Name, len(other), o50, tail(o99, ow, ook))
	}
	late50, _ := Quantile(late, 0.5)
	lateP99, _ := Quantile(late, 0.99)
	r.logf("%s: generator lateness p50 %.3f ms, p99 %.3f ms", r.w.Name, late50, lateP99)
	// The run is invalid when the generator itself fell behind: then
	// most requests leave late, not only those hit by a passing stall.
	if late50 > maxLateness {
		r.op(fmt.Errorf("generator fell behind: median lateness %.2f ms > %.0f ms", late50, maxLateness))
	}
	if !ok99 {
		return 0
	}
	return p99
}

func tail(p99 float64, windows int, ok bool) string {
	if !ok {
		return "p99 unsupported (under 1000 samples)"
	}
	return fmt.Sprintf("lat_p99_ms %.3f (median of %d sub-window p99s)", p99, windows)
}
