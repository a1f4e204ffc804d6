// Command benchmark measures cafa end to end, trace bytes in to race
// report out, through its two user surfaces: the cafa-analyze binary
// (batch and -stream) and a cafa-serve child on loopback. With
// -trace 1 it instead times each layer serially from outside, by
// calling the layers' public functions one after another.
//
// Run it through run.sh from the repository root, which builds the
// binaries first:
//
//	bash benchmark/run.sh --workload apps-s1 --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is the result; the line before it
// holds the host facts and the input sizes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// config is the parsed command line plus the paths derived from it.
type config struct {
	wl      *workload
	seed    uint64
	seconds time.Duration
	root    string // checkout root
	work    string // scratch directory for this run, removed at exit
	bin     string // directory holding cafa-analyze and cafa-serve
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the line printed before the result: where the numbers
// come from and how many samples each rests on.
type runInfo struct {
	Host     hostFacts      `json:"host"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Trace    int            `json:"trace"`
	Rounds   int            `json:"rounds"`
	Traces   int            `json:"traces"`
	Entries  int            `json:"entries"`
	Bytes    int            `json:"bytes"`
	Samples  map[string]int `json:"samples"`
	// KernelMs is the median calibration kernel sample of an
	// end-to-end run; a wall time is about its reference time times
	// KernelMs over kernelNominal.
	KernelMs float64  `json:"kernel_ms,omitempty"`
	Spans    string   `json:"spans,omitempty"`
	Errors   []string `json:"errors,omitempty"`
}

func main() {
	if len(os.Args) > 2 && os.Args[1] == launchArg {
		os.Exit(runLauncher(os.Args[2:]))
	}
	if len(os.Args) == 2 && os.Args[1] == calibrateArg {
		runKernel()
		return
	}
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: apps-s1 or entry-flood")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "least duration of a run, in seconds")
		traced  = flag.Int("trace", 0, "1 = serial per-layer traced run instead of the end-to-end run")
	)
	flag.Parse()
	wl, ok := workloadByName(*name)
	if !ok || (*traced != 0 && *traced != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "benchmark: want --workload apps-s1|entry-flood, --trace 0|1 and --seconds >= 1\n")
		return 2
	}
	// The benchmark runs from the checkout root.
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	cfg := &config{
		wl:      wl,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		root:    root,
		bin:     filepath.Join(root, ".bench_build", "bin"),
		work:    filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", wl.name, *seed, os.Getpid())),
	}
	// A signal cancels ctx, which kills any running child; the
	// deferred clean-up then runs as usual.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	if *traced == 0 {
		// One P here and one in each child (childProcs): the load
		// generator and the server it drives fit the host's two vCPUs.
		// The traced run keeps the default, so analysis.pipeline_ms
		// shows the pipeline's concurrency.
		runtime.GOMAXPROCS(1)
	}
	info := &runInfo{Host: readHost(cfg.root), Workload: wl.name, Seed: cfg.seed, Trace: *traced, Samples: map[string]int{}}
	var res *result
	if *traced == 1 {
		res, err = runTraced(ctx, cfg, info)
	} else {
		res, err = runEndToEnd(ctx, cfg, info)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	for _, e := range info.Errors {
		fmt.Fprintf(os.Stderr, "benchmark: check failed: %s\n", e)
	}
	if err := printJSON(info); err != nil {
		return 1
	}
	if err := printJSON(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// setUp generates round r's inputs and writes them under the run's
// work directory, returning the round directory.
func setUp(cfg *config, r int) ([]*input, string, error) {
	ins, err := cfg.wl.generate(cfg.seed, r)
	if err != nil {
		return nil, "", fmt.Errorf("generate round %d: %w", r, err)
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("r%d", r))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	for _, in := range ins {
		if err := os.WriteFile(filepath.Join(dir, in.name), in.raw, 0o644); err != nil {
			return nil, "", err
		}
	}
	return ins, dir, nil
}

// addInputs records a round's input sizes in info.
func addInputs(info *runInfo, ins []*input) {
	info.Rounds++
	for _, in := range ins {
		info.Traces++
		info.Entries += in.entries
		info.Bytes += len(in.raw)
	}
}

// errText renders at most a few errors for the info line.
func errText(errs []error) []string {
	const keep = 8
	var out []string
	for i, e := range errs {
		if i == keep {
			out = append(out, fmt.Sprintf("... and %d more", len(errs)-keep))
			break
		}
		out = append(out, strings.TrimSpace(e.Error()))
	}
	return out
}
