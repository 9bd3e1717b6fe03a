package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Target is one server the generator sends to: a base URL and the path
// prefix its /v1 surface lives under ("/v1", or "/v1/{scenario}" on a
// scenario matrix).
type Target struct {
	Name   string
	Base   string
	Prefix string
}

// Job is one scheduled request.
type Job struct {
	Due    time.Duration // offset from the run start
	Target int
	Req    Request
	// Scrape marks a /varz scrape rather than a /v1 mix request.
	Scrape bool
	// Trace records the job's first-response-byte time.
	Trace bool
}

// URL renders the job's full request URL against its target.
func (j Job) URL(targets []Target) string {
	t := targets[j.Target]
	if j.Scrape {
		return t.Base + "/varz"
	}
	return t.Base + t.Prefix + j.Req.Path
}

// Result is what happened to one job. Times are offsets from the run
// start; an unsent job has Sent == 0 and Err set.
type Result struct {
	Job
	Released  time.Duration // when the dispatcher queued it
	Sent      time.Duration // when a sender began the request
	FirstByte time.Duration // first response byte (traced runs only)
	Done      time.Duration
	Status    int
	Err       error
	// Invalid marks a response the server gave in time that failed
	// validation: a non-2xx status or a wrong body.
	Invalid bool
}

// Timing failures: a job the run ended before it finished, or that
// finished after the grace period.
var (
	errUnfinished = errors.New("unfinished at the end of the run")
	errLate       = errors.New("finished after the grace period")
)

// Latency is the job's latency in milliseconds, from its release at the
// due time to the last body byte. The wait in the generator's queue for
// a free sender counts, so a stall shows up as latency on every request
// queued behind it. The dispatcher's own lateness (release minus due,
// about half a millisecond at the median from Go's timer granularity)
// is left out: it is the harness's, and is reported on its own.
func (r Result) Latency() float64 { return ms(r.Done - r.Released) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Schedule spreads reqs over an open-loop schedule at a constant rate
// of requests per second, sending them to the targets in turn, plus one
// /varz scrape of the first target per second when scrape is set.
// Arrivals are evenly spaced, so run-to-run variation comes from the
// system, not from random bursts in the offered load.
func Schedule(reqs []Request, rate float64, targets int, scrape bool) []Job {
	n := len(reqs)
	dur := time.Duration(float64(n) / rate * float64(time.Second))
	jobs := make([]Job, 0, n+int(dur/time.Second)+1)
	for i := 0; i < n; i++ {
		due := time.Duration((float64(i) + 0.5) / rate * float64(time.Second))
		jobs = append(jobs, Job{Due: due, Target: i % targets, Req: reqs[i]})
	}
	if scrape {
		var merged []Job
		next := time.Second / 2
		for _, j := range jobs {
			for next < j.Due && next < dur {
				merged = append(merged, Job{Due: next, Scrape: true})
				next += time.Second
			}
			merged = append(merged, j)
		}
		jobs = merged
	}
	return jobs
}

// Validator checks one response body. It is called concurrently from
// every sender.
type Validator interface {
	Check(j Job, status int, header http.Header, body []byte) error
}

// Generator is the due-time open-loop load generator: a dispatcher
// releases each job at its due time into a queue, and a fixed set of
// senders, each with its own connection per target, takes jobs from the
// queue in order. Latency is measured from the due time.
type Generator struct {
	Targets []Target
	Senders int
	Check   Validator
}

// grace is how long after the last due time unfinished jobs may still
// complete before they count as failed.
const grace = 2 * time.Second

// NumSenders is the sender and connection count: one per CPU, at most 2,
// so the generator never needs more processors than the box has.
func NumSenders() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

// Run executes jobs (sorted by Due) and returns one Result per job, in
// job order. It returns once every job has completed or been abandoned.
func (g *Generator) Run(ctx context.Context, jobs []Job) []Result {
	res := make([]Result, len(jobs))
	for i := range jobs {
		res[i].Job = jobs[i]
	}
	if len(jobs) == 0 {
		return res
	}
	last := jobs[len(jobs)-1].Due
	runCtx, cancel := context.WithTimeout(ctx, last+grace+time.Second)
	defer cancel()

	// The queue holds every job, so the dispatcher never blocks on a
	// busy sender and its lateness measures only its own scheduling.
	queue := make(chan int, len(jobs))
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < g.Senders; s++ {
		client := &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			// One body buffer per sender, reused, so reading the large
			// artifacts does not load the box with client garbage.
			var buf bytes.Buffer
			for i := range queue {
				g.send(runCtx, client, &buf, start, &res[i])
			}
		}()
	}
	deadline := start.Add(last + grace)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
dispatch:
	for i := range jobs {
		due := start.Add(jobs[i].Due)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-runCtx.Done():
				break dispatch
			}
		}
		res[i].Released = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	for i := range res {
		if res[i].Err == nil && res[i].Done == 0 {
			res[i].Err = errUnfinished
		}
		if res[i].Done > 0 && start.Add(res[i].Done).After(deadline) && res[i].Err == nil {
			res[i].Err = errLate
		}
	}
	return res
}

func (g *Generator) send(ctx context.Context, client *http.Client, buf *bytes.Buffer, start time.Time, r *Result) {
	if ctx.Err() != nil {
		r.Err = errUnfinished
		return
	}
	reqCtx := ctx
	if r.Trace {
		reqCtx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotFirstResponseByte: func() { r.FirstByte = time.Since(start) },
		})
	}
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, r.URL(g.Targets), nil)
	if err != nil {
		r.Err = err
		return
	}
	r.Sent = time.Since(start)
	resp, err := client.Do(req)
	if err != nil {
		r.Done = time.Since(start)
		r.Err = err
		return
	}
	buf.Reset()
	if resp.ContentLength > 0 {
		buf.Grow(int(resp.ContentLength))
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.Done = time.Since(start)
	r.Status = resp.StatusCode
	body := buf.Bytes()
	if err != nil {
		r.Err = err
		return
	}
	switch {
	case r.Scrape && resp.StatusCode != http.StatusOK:
		r.Err = fmt.Errorf("/varz: status %d", resp.StatusCode)
	case !r.Scrape && g.Check != nil:
		r.Err = g.Check.Check(r.Job, resp.StatusCode, resp.Header, body)
	}
	r.Invalid = r.Err != nil
}

// BodyCheck validates mix responses. Static artifacts must equal the
// golden-checked reference bytes for their target; computed responses
// must be 200 JSON with an ETag, and the same path must always answer
// the same bytes on the same target.
type BodyCheck struct {
	Targets []Target
	// Ref maps target name → static path → reference body.
	Ref map[string]map[string][]byte

	seed maphash.Seed
	mu   sync.Mutex
	seen map[string]uint64
}

// NewBodyCheck returns a validator over the given reference bodies.
func NewBodyCheck(targets []Target, ref map[string]map[string][]byte) *BodyCheck {
	return &BodyCheck{Targets: targets, Ref: ref, seed: maphash.MakeSeed(), seen: make(map[string]uint64)}
}

// Check implements Validator.
func (c *BodyCheck) Check(j Job, status int, header http.Header, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d", j.Req.Path, status)
	}
	t := c.Targets[j.Target]
	if Mix[j.Req.Endpoint].Static {
		want, ok := c.Ref[t.Name][j.Req.Path]
		if !ok {
			return fmt.Errorf("%s: no reference body", j.Req.Path)
		}
		if !bytes.Equal(body, want) {
			return fmt.Errorf("%s on %s: body differs from the reference (%d bytes, want %d)", j.Req.Path, t.Name, len(body), len(want))
		}
		return nil
	}
	if ct := header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		return fmt.Errorf("%s: content type %q", j.Req.Path, ct)
	}
	if header.Get("ETag") == "" || len(body) < 2 || body[0] != '{' {
		return fmt.Errorf("%s: not a tagged JSON object (%d bytes)", j.Req.Path, len(body))
	}
	h := maphash.Bytes(c.seed, body)
	key := t.Name + " " + j.Req.Path
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.seen[key]; ok && prev != h {
		return fmt.Errorf("%s on %s: answer changed between requests", j.Req.Path, t.Name)
	}
	c.seen[key] = h
	return nil
}
