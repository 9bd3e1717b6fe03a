// Command perfbench is the repository's end-to-end benchmark. It boots
// real marketd processes built from the tree, drives one named workload
// through the CLI and HTTP surface, checks every response against a
// committed oracle, and prints one JSON result line. See README.md.
//
//	bash perfbench/run.sh --workload read_mix --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// Options are the command-line settings of one run.
type Options struct {
	Workload  string
	Seed      int64
	Seconds   int
	Trace     bool
	WorldSeed int64
	Marketd   string
	Workdir   string
	Data      string
	// RecordGolden writes the golden file instead of running a workload.
	RecordGolden bool
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Output is the JSON result line.
type Output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o Options
	var trace int
	fs.StringVar(&o.Workload, "workload", "", "workload name")
	fs.Int64Var(&o.Seed, "seed", 1, "load seed: request sequence and arrival times")
	fs.IntVar(&o.Seconds, "seconds", 15, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run, printing the per-layer metrics")
	fs.Int64Var(&o.WorldSeed, "world-seed", 0, "world seed (0: the golden file's; other seeds skip the golden hashes)")
	fs.StringVar(&o.Marketd, "marketd", "", "marketd binary built from this tree")
	fs.StringVar(&o.Workdir, "workdir", ".bench_build", "scratch directory for stores and logs")
	fs.StringVar(&o.Data, "data", "perfbench/data", "the benchmark's frozen inputs")
	fs.BoolVar(&o.RecordGolden, "record-golden", false, "boot the default worlds and write data/golden.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.Trace = trace == 1
	if o.Marketd == "" {
		fmt.Fprintln(stderr, "perfbench: -marketd is required")
		return 2
	}
	senders := NumSenders()
	runtime.GOMAXPROCS(senders)

	// Every wait on a process or a request has its own bound, so a run
	// needs no overall deadline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.RecordGolden {
		if err := recordGolden(ctx, o); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(o.Workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	r, err := newRunner(o, w, senders, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer r.cleanup()
	out, err := r.Run(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed\n", out.Failed, out.Attempted)
		return 1
	}
	return 0
}

// recordGolden boots the default single world and the default matrix and
// writes the sha256 of each static artifact to data/golden.json.
func recordGolden(ctx context.Context, o Options) error {
	path := filepath.Join(o.Data, "golden.json")
	g, err := loadGolden(path)
	if err != nil {
		return err
	}
	g.Single, g.Scenarios = nil, map[string]map[string]string{}
	for _, w := range []Workload{{Name: "golden"}, {Name: "golden", Matrix: true}} {
		r, err := newRunner(o, w, 1, io.Discard)
		if err != nil {
			return err
		}
		r.golden = nil
		t, _, err := r.boot(ctx, 0)
		if err != nil {
			r.cleanup()
			return err
		}
		for _, tg := range t.targets("leader") {
			a, err := fetchArtifacts(ctx, tg, nil)
			if err != nil {
				t.Stop()
				r.cleanup()
				return err
			}
			hashes := make(map[string]string, len(a.Body))
			for p, b := range a.Body {
				hashes[p] = sha256Hex(b)
			}
			if sc := tg.Name[len("leader/"):]; sc == "default" {
				g.Single = hashes
			} else {
				g.Scenarios[sc] = hashes
			}
		}
		t.Stop()
		r.cleanup()
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
