package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// Workload describes one named workload. Every workload runs the same
// phases on its own topology — cold set-ups, a measured window,
// optional rebuilds after the window, warm restarts — so every
// end-to-end metric is measured on every workload; the workloads differ
// in what the window holds.
type Workload struct {
	Name string
	Why  string
	// Matrix serves the two-scenario matrix instead of a single world.
	Matrix bool
	// ReadRate is the open-loop read rate during the window, requests
	// per second over all targets.
	ReadRate float64
	// Probe, when set, names the one static mix endpoint the window
	// reads instead of the whole mix.
	Probe string
	// ReadOn names the processes that take the window's reads: "leader",
	// "follower", or "both", alternating.
	ReadOn string
	// Scrape adds a /varz scrape of the first target once a second, as
	// a monitoring agent would.
	Scrape bool
	// Ladder climbs the rate ladder after the window of an untraced run
	// and logs max_rps_at_slo.
	Ladder bool
	// Cycles runs SIGHUP rebuild cycles back to back during the window.
	Cycles bool
	// Refresh is the number of rebuild cycles run after the window, with
	// no read traffic.
	Refresh int
}

// Workloads are the benchmark's named workloads.
var Workloads = []Workload{
	{
		Name: "rebuild", Cycles: true, ReadRate: 20, Probe: "headline", ReadOn: "follower",
		Why: "back-to-back SIGHUP rebuilds published to a follower; the build, store and replication do the work, a 20/s /headline probe reads the follower",
	},
	{
		Name: "read_mix", ReadRate: 300, ReadOn: "leader", Scrape: true, Ladder: true, Refresh: 4,
		Why: "the frozen 15-endpoint /v1 mix at a fixed rate on an idle build; handlers, cache, segment reads and net/http do the work",
	},
	{
		Name: "matrix_churn", Matrix: true, Cycles: true, ReadRate: 120, ReadOn: "both",
		Why: "two-scenario matrix, reads on leader and follower while rebuild-all runs back to back; build CPU competes with serving",
	},
}

// requests draws the window's n requests from seed: the whole mix, or
// n requests of the probe endpoint.
func (w Workload) requests(seed int64, n int) []Request {
	if w.Probe == "" {
		return SampleRequests(seed, n)
	}
	i := endpointIndex(w.Probe)
	rng := rand.New(rand.NewSource(seed))
	out := make([]Request, n)
	for k := range out {
		out[k] = Request{Endpoint: i, Path: Mix[i].Path(rng)}
	}
	return out
}

func findWorkload(name string) (Workload, error) {
	var names []string
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

const (
	setups      = 3
	restarts    = 4
	readyWithin = 120 * time.Second
	// followerPoll is the follower's leader poll period: small next to a
	// build, so publication waits little for the next poll.
	followerPoll = 50 * time.Millisecond
	// restartPause lets the stopped process's exit settle before the
	// next restart is timed.
	restartPause = 100 * time.Millisecond
)

// Topology is a running leader and follower.
type Topology struct {
	Leader, Follower *Proc
	leaderArgs       []string
	Scenarios        []string
}

func (t *Topology) Stop() {
	if t == nil {
		return
	}
	t.Follower.Stop(15 * time.Second)
	t.Leader.Stop(15 * time.Second)
}

// targets lists the generator targets: every scenario on the processes
// readOn names ("leader", "follower" or "both").
func (t *Topology) targets(readOn string) []Target {
	var out []Target
	for _, sc := range t.Scenarios {
		prefix := "/v1"
		if sc != "default" {
			prefix = "/v1/" + sc
		}
		if readOn != "follower" {
			out = append(out, Target{Name: "leader/" + sc, Base: t.Leader.Base, Prefix: prefix})
		}
		if readOn != "leader" {
			out = append(out, Target{Name: "follower/" + sc, Base: t.Follower.Base, Prefix: prefix})
		}
	}
	return out
}

// boot starts a leader with a fresh store and a follower of it, and
// returns once both answer /readyz 200. The elapsed time is the set-up
// time: the leader's cold build plus the follower's first sync.
func (r *Runner) boot(ctx context.Context, i int) (*Topology, time.Duration, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("boot%d", i))
	ldir, fdir := filepath.Join(dir, "leader"), filepath.Join(dir, "follower")
	world := []string{
		"-lirs", fmt.Sprint(r.world.LIRs), "-days", fmt.Sprint(r.world.Days),
	}
	var scen []string
	names := []string{"default"}
	if r.w.Matrix {
		scen = []string{"-scenarios", filepath.Join(r.opts.Data, "scenarios")}
		names = []string{"baseline", "churnstorm"}
	} else {
		world = append(world, "-seed", fmt.Sprint(r.world.Seed))
	}
	largs := append(append([]string{"-data-dir", ldir}, world...), scen...)
	start := time.Now()
	leader, err := startMarketd(ctx, r.opts.Marketd, "leader", append([]string{"-listen", "127.0.0.1:0"}, largs...), readyWithin)
	if err != nil {
		return nil, 0, err
	}
	t := &Topology{Leader: leader, Scenarios: names}
	t.leaderArgs = append([]string{"-listen", strings.TrimPrefix(leader.Base, "http://")}, largs...)
	if err := waitReady(ctx, leader.Base, readyWithin); err != nil {
		t.Stop()
		return nil, 0, err
	}
	fargs := append(append([]string{
		"-listen", "127.0.0.1:0", "-data-dir", fdir, "-follow", leader.Base,
		"-poll-interval", followerPoll.String(),
	}, world...), scen...)
	t.Follower, err = startMarketd(ctx, r.opts.Marketd, "follower", fargs, readyWithin)
	if err != nil {
		t.Stop()
		return nil, 0, err
	}
	if err := waitReady(ctx, t.Follower.Base, readyWithin); err != nil {
		t.Stop()
		return nil, 0, err
	}
	return t, time.Since(start), nil
}

// cycle is one measured rebuild: SIGHUP to the leader, then the time
// until the leader serves a new generation of every scenario, then until
// the follower serves it too.
type cycle struct {
	Trigger, LeaderServing, FollowerServing time.Time
	AllocBytes                              float64
	// LeaderCPU is the leader's CPU time from the trigger to the leader
	// serving; PairCPU is leader plus follower CPU time from the trigger
	// to the follower serving.
	LeaderCPU, PairCPU float64
	// Stages are the new generation's build-stage seconds by name, as
	// the leader's /varz publishes them.
	Stages map[string]float64
}

func (r *Runner) rebuildCycle(ctx context.Context, t *Topology) (cycle, error) {
	var c cycle
	before, err := Generations(ctx, t.Leader.Base)
	if err != nil {
		return c, err
	}
	v0, err := ReadVarz(ctx, t.Leader.Base)
	if err != nil {
		return c, err
	}
	want := make(map[string]uint64, len(before))
	for name, g := range before {
		want[name] = g + 1
	}
	l0, f0, err := cpuSeconds(t.Leader, t.Follower)
	if err != nil {
		return c, err
	}
	c.Trigger = time.Now()
	if err := t.Leader.Signal(syscall.SIGHUP); err != nil {
		return c, err
	}
	if err := waitGenerations(ctx, t.Leader.Base, want, readyWithin); err != nil {
		return c, err
	}
	c.LeaderServing = time.Now()
	l1, err := t.Leader.CPUSeconds()
	if err != nil {
		return c, err
	}
	c.LeaderCPU = l1 - l0
	if err := waitGenerations(ctx, t.Follower.Base, want, readyWithin); err != nil {
		return c, err
	}
	c.FollowerServing = time.Now()
	l2, f2, err := cpuSeconds(t.Leader, t.Follower)
	if err != nil {
		return c, err
	}
	c.PairCPU = l2 - l0 + f2 - f0
	v1, err := ReadVarz(ctx, t.Leader.Base)
	if err != nil {
		return c, err
	}
	c.AllocBytes = v1.Process.TotalAllocBytes - v0.Process.TotalAllocBytes
	c.Stages = make(map[string]float64, len(v1.Snapshot.BuildStages))
	for _, st := range v1.Snapshot.BuildStages {
		c.Stages[st.Name] = st.Seconds
	}
	return c, nil
}

// cpuSeconds reads the CPU time of both processes.
func cpuSeconds(leader, follower *Proc) (l, f float64, err error) {
	if l, err = leader.CPUSeconds(); err != nil {
		return 0, 0, err
	}
	f, err = follower.CPUSeconds()
	return l, f, err
}

// verify fetches every static artifact from leader and follower for
// each scenario, checks the bodies against the golden hashes, and
// requires the follower's ETags to equal the leader's and the leader's
// to equal the cold build's. It returns the leader's artifacts.
func (r *Runner) verify(ctx context.Context, t *Topology) map[string]Artifacts {
	out := make(map[string]Artifacts)
	for _, tg := range t.targets("both") {
		sc := strings.SplitN(tg.Name, "/", 2)[1]
		var want map[string]string
		if r.golden != nil {
			want = r.golden.hashes(sc)
		}
		a, err := fetchArtifacts(ctx, tg, want)
		r.op(err)
		if err != nil {
			continue
		}
		out[tg.Name] = a
		if cold, ok := r.coldETags[sc]; ok {
			r.op(wrapf(sameETags(cold, a.ETag), "%s vs the cold build", tg.Name))
		} else if strings.HasPrefix(tg.Name, "leader/") {
			r.coldETags[sc] = a.ETag
		}
	}
	return out
}

func wrapf(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), err)
}

// restart stops the leader and starts it again over the same store and
// port, returning the time from process start to /readyz 200. The
// restarted leader warm-starts from its newest generation and begins a
// background rebuild, which is abandoned: the process is killed once it
// has answered.
func (r *Runner) restart(ctx context.Context, t *Topology, graceful bool) (time.Duration, error) {
	if graceful {
		t.Leader.Stop(30 * time.Second)
	} else {
		t.Leader.Kill()
	}
	time.Sleep(restartPause)
	start := time.Now()
	p, err := startMarketd(ctx, r.opts.Marketd, "leader", t.leaderArgs, readyWithin)
	if err != nil {
		return 0, err
	}
	t.Leader = p
	if err := waitReady(ctx, p.Base, readyWithin); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// cleanup removes the run's scratch directory.
func (r *Runner) cleanup() {
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
}
