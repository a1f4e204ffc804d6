package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"cafa/internal/analysis"
	"cafa/internal/apps"
	"cafa/internal/report"
	"cafa/internal/sim"
	"cafa/internal/synth"
	"cafa/internal/trace"
)

// input is one generated trace of a round, with what its report is
// checked against: the planted ground truth of an app trace, or the
// race list of the same synth shape without padding.
type input struct {
	// name is the trace's path relative to the round's work directory;
	// the CLI gets it as its argument and cafa-serve as the upload
	// name, so both surfaces label the report identically.
	name    string
	raw     []byte
	entries int
	// truth is the app's planted ground truth (nil for synth traces).
	truth []apps.Planted
	// shape is the synth configuration (nil for app traces); the
	// expected race list is that of the shape with AccessesPer 0.
	shape *synth.Config
}

// workload is one set of inputs the benchmark runs. Every round of a
// run generates fresh inputs from (seed, round), so a round's traces
// are new to the cafa-serve child started for it.
type workload struct {
	name string
	// generate builds round r's inputs from the run seed.
	generate func(seed uint64, r int) ([]*input, error)
	// serve is the closed serve loop's plan.
	serve servePlan
	// serveLayers makes the traced run also time the provenance,
	// report and service layers.
	serveLayers bool
}

var workloads = []*workload{
	{
		name:        "apps-s1",
		generate:    genApps,
		serve:       servePlan{hitPasses: 5, sessions: 2},
		serveLayers: true,
	},
	{
		name:     "entry-flood",
		generate: genFlood,
		// Six traces a round, the largest sampled once per session:
		// three sessions give its tail latency six samples a run. Two
		// hit passes keep the round's time close to apps-s1's.
		serve: servePlan{hitPasses: 2, sessions: 3},
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// subSeed derives an independent, nonzero seed for item k of round r
// (splitmix64 over the three values).
func subSeed(seed uint64, r, k int) uint64 {
	z := seed ^ uint64(r+1)*0x9e3779b97f4a7c15 ^ uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// traceApp runs one app model on the simulated runtime and encodes
// its trace.
func traceApp(spec apps.Spec, seed uint64, scale int, name string) (*input, error) {
	col := trace.NewCollector()
	b, err := apps.Build(spec, sim.Config{Tracer: col, Seed: seed}, scale)
	if err != nil {
		return nil, err
	}
	if err := b.Sys.Run(); err != nil {
		return nil, fmt.Errorf("%s: run: %w", spec.Name, err)
	}
	return encode(col.T, name, b.Truth, nil)
}

func encode(tr *trace.Trace, name string, truth []apps.Planted, shape *synth.Config) (*input, error) {
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		return nil, fmt.Errorf("%s: encode: %w", name, err)
	}
	return &input{name: name, raw: buf.Bytes(), entries: tr.Len(), truth: truth, shape: shape}, nil
}

// genApps traces the ten app models at scale 1.
func genApps(seed uint64, r int) ([]*input, error) {
	out := make([]*input, 0, len(apps.Registry))
	for k, spec := range apps.Registry {
		in, err := traceApp(spec, subSeed(seed, r, k), 1, strings.ToLower(spec.Name)+".trace")
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// Entry-flood round: floodTraces synth traces whose entry counts are
// spread evenly over [floodMinEntries, floodMaxEntries]. The largest
// is the same in every round, so it sets the same peak memory and the
// tail latency rests on several samples of one size. The others shift
// by a third of a step from round to round, so a run holds many
// distinct sizes and a median latency never sits on the gap between
// two of them.
const (
	floodTraces     = 6
	floodMinEntries = 500_000
	floodMaxEntries = 1_000_000
)

// floodEvents is the number of events, and so about the number of hb
// nodes, of every flood trace. Analysis time on a flood trace grows
// with its events as well as its entries (255 to 486 ms at 1M entries
// for 84 to 266 events at GOMAXPROCS=1), so a free event count would
// make the tail latency a draw of the largest trace's shape; fixed, it
// leaves entry volume as the one thing that varies.
const floodEvents = 200

// floodShape draws a synth skeleton from rng, sized to floodEvents
// events, and pads it with benign reads to about target entries.
func floodShape(rng *rand.Rand, target int) synth.Config {
	cfg := synth.Config{
		Chain:       2 + rng.Intn(4), // 2-5
		EventsPer:   4 + rng.Intn(9), // 4-12
		FreeThreads: 2 + rng.Intn(3), // 2-4
		Burst:       4 + rng.Intn(5), // 4-8
	}
	cfg.BurstEvents = (floodEvents - cfg.Chain*cfg.EventsPer) / cfg.Burst // 17-48
	events := cfg.Chain*cfg.EventsPer + cfg.Burst*cfg.BurstEvents
	cfg.AccessesPer = target / events
	return cfg
}

// genFlood builds the entry-flood round.
func genFlood(seed uint64, r int) ([]*input, error) {
	rng := rand.New(rand.NewSource(int64(subSeed(seed, r, 0))))
	out := make([]*input, 0, floodTraces)
	for k := 0; k < floodTraces; k++ {
		step := (floodMaxEntries - floodMinEntries) / (floodTraces - 1)
		target := floodMaxEntries
		if k < floodTraces-1 {
			target = floodMinEntries + k*step + r%3*step/3
		}
		cfg := floodShape(rng, target)
		in, err := encode(synth.Trace(cfg), fmt.Sprintf("flood%d.trace", k), nil, &cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// expectedRaces is the JSON race list an input's report must carry
// when the expectation is a differential one: for a synth trace, the
// races of the same shape without padding, which by construction adds
// no candidates. App traces return nil; they are checked against
// their planted ground truth instead.
func expectedRaces(in *input) ([]report.RaceJSON, error) {
	if in.shape == nil {
		return nil, nil
	}
	bare := *in.shape
	bare.AccessesPer = 0
	tr := synth.Trace(bare)
	res, err := analysis.Analyze(tr, analysis.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: unpadded shape: %w", in.name, err)
	}
	rep := report.BuildJSON([]*report.FileReport{{File: in.name, Trace: tr, Result: res}})
	return rep.Inputs[0].Races, nil
}

// expectations computes every input's expected race list, keyed by
// input name.
func expectations(ins []*input) (map[string][]report.RaceJSON, error) {
	want := make(map[string][]report.RaceJSON, len(ins))
	for _, in := range ins {
		w, err := expectedRaces(in)
		if err != nil {
			return nil, err
		}
		want[in.name] = w
	}
	return want, nil
}
