package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Proc is one running marketd process.
type Proc struct {
	Name string
	Base string // http://host:port once serving
	cmd  *exec.Cmd
	done chan struct{}
	err  error

	mu  sync.Mutex
	log []string // the last lines of its output
}

// startMarketd launches marketd with args and returns once it prints its
// serving address, or with an error if it exits or times out first.
func startMarketd(ctx context.Context, bin, name string, args []string, timeout time.Duration) (*Proc, error) {
	cmd := exec.Command(bin, args...)
	// A marketd must not outlive a benchmark that was killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	p := &Proc{Name: name, cmd: cmd, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if len(p.log) >= 40 {
				p.log = p.log[1:]
			}
			p.log = append(p.log, line)
			p.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "marketd: serving on "); ok {
				select {
				case addr <- strings.TrimSpace(rest):
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
		p.err = cmd.Wait()
		close(p.done)
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case a := <-addr:
		p.Base = a
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before serving: %w\n%s", name, p.err, p.Tail())
	case <-timer.C:
		p.Kill()
		return nil, fmt.Errorf("%s did not start serving within %v\n%s", name, timeout, p.Tail())
	case <-ctx.Done():
		p.Kill()
		return nil, ctx.Err()
	}
}

// Tail returns the process's last output lines.
func (p *Proc) Tail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.log, "\n")
}

// Signal sends sig to the process.
func (p *Proc) Signal(sig os.Signal) error { return p.cmd.Process.Signal(sig) }

// Stop asks the process to shut down and waits for it, killing it if it
// has not exited within the timeout.
func (p *Proc) Stop(timeout time.Duration) {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(timeout):
		p.Kill()
	}
}

// Kill kills the process and waits for it to exit.
func (p *Proc) Kill() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.done
}

// CPUSeconds is the time the process's threads have spent on a CPU,
// summed from /proc/<pid>/task/*/schedstat. The kernel counts it from
// the task clock, which leaves out time the hypervisor gave the vCPU to
// another guest (steal), as well as time spent waiting for a CPU.
func (p *Proc) CPUSeconds() (float64, error) {
	dir := filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "task")
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: empty schedstat", p.Name)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return ns / 1e9, nil
}

// PeakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func (p *Proc) PeakRSSMB() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.Name)
}

// client is the benchmark's control-plane HTTP client (readiness,
// generation polls, reference fetches, /varz); load goes through the
// generator's own connections.
var client = &http.Client{Timeout: 30 * time.Second}

// get fetches url and returns status, headers and body.
func get(ctx context.Context, url string) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// getJSON fetches url, requires 200, and decodes the body into v.
func getJSON(ctx context.Context, url string, v any) error {
	status, _, body, err := get(ctx, url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, status)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// pollEvery is the control-plane poll period for readiness and
// generation changes: small next to a build, so it adds little error.
const pollEvery = 5 * time.Millisecond

// waitReady polls base/readyz until it answers 200.
func waitReady(ctx context.Context, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		status, _, _, err := get(ctx, base+"/readyz")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("%s/readyz not ready within %v: %w", base, timeout, err)
			}
			return fmt.Errorf("%s/readyz not ready within %v: status %d", base, timeout, status)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollEvery):
		}
	}
}

// Generations reads the serving generation of every scenario from the
// cheap /v1/scenarios listing (a single-world server lists one scenario
// named "default").
func Generations(ctx context.Context, base string) (map[string]uint64, error) {
	var doc struct {
		Scenarios []struct {
			Name string `json:"name"`
			Gen  uint64 `json:"gen"`
		} `json:"scenarios"`
	}
	if err := getJSON(ctx, base+"/v1/scenarios", &doc); err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(doc.Scenarios))
	for _, s := range doc.Scenarios {
		out[s.Name] = s.Gen
	}
	return out, nil
}

// waitGenerations polls base until every scenario serves at least the
// generation in want.
func waitGenerations(ctx context.Context, base string, want map[string]uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		got, err := Generations(ctx, base)
		if err == nil && atLeast(got, want) {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("%s: generations did not reach %v within %v: %w", base, want, timeout, err)
			}
			return fmt.Errorf("%s: generations %v did not reach %v within %v", base, got, want, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollEvery):
		}
	}
}

func atLeast(got, want map[string]uint64) bool {
	for name, g := range want {
		if got[name] < g {
			return false
		}
	}
	return true
}

// Varz is the subset of a marketd /varz document the benchmark reads.
type Varz struct {
	Process struct {
		TotalAllocBytes float64 `json:"total_alloc_bytes"`
		Mallocs         float64 `json:"mallocs"`
	} `json:"process"`
	Snapshot struct {
		Gen         uint64 `json:"gen"`
		BuildStages []struct {
			Name    string  `json:"name"`
			Seconds float64 `json:"seconds"`
		} `json:"build_stages"`
	} `json:"snapshot"`
	Cache struct {
		Hits      float64 `json:"hits"`
		Misses    float64 `json:"misses"`
		Collapsed float64 `json:"collapsed"`
	} `json:"cache"`
	ZeroCopy struct {
		FileReads float64 `json:"file_reads"`
		MemReads  float64 `json:"mem_reads"`
		Fallbacks float64 `json:"fallbacks"`
	} `json:"zero_copy"`
	Replication struct {
		FetchErrors float64 `json:"fetch_errors"`
	} `json:"replication"`
	Routes map[string]struct {
		Requests float64 `json:"requests"`
	} `json:"routes"`
}

// ReadVarz fetches and decodes base/varz.
func ReadVarz(ctx context.Context, base string) (Varz, error) {
	var v Varz
	err := getJSON(ctx, base+"/varz", &v)
	return v, err
}

// V1Requests sums the request counts of every /v1 route.
func (v Varz) V1Requests() float64 {
	n := 0.0
	for route, r := range v.Routes {
		if strings.HasPrefix(route, "GET /v1/") {
			n += r.Requests
		}
	}
	return n
}
