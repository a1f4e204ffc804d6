package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"cafa/internal/analysis"
	"cafa/internal/apps"
	"cafa/internal/detect"
	"cafa/internal/report"
	"cafa/internal/service"
	"cafa/internal/trace"
)

// TestMain lets the test binary act as the launcher, as the benchmark
// binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == launchArg {
		os.Exit(runLauncher(os.Args[2:]))
	}
	if len(os.Args) == 2 && os.Args[1] == calibrateArg {
		runKernel()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The calibrator samples the kernel in a child and turns the median
// sample into the factor that converts wall time to reference time.
func TestCalibrator(t *testing.T) {
	c, err := newCalibrator(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.mark()
	c.mark()
	if c.err != nil || len(c.samples) != 3 {
		t.Fatalf("samples %v, err %v", c.samples, c.err)
	}
	f := c.factor()
	if want := float64(kernelNominal) / float64(c.medianSample()); f != want || f <= 0 {
		t.Errorf("factor %v, want %v", f, want)
	}
	if got := scale(2*time.Second, 0.5); got != time.Second {
		t.Errorf("scale(2s, 0.5) = %v", got)
	}
}

// Every flood shape has floodEvents events, give or take the rounding
// of the burst loopers' share.
func TestFloodShapeEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200; k++ {
		cfg := floodShape(rng, floodMaxEntries)
		events := cfg.Chain*cfg.EventsPer + cfg.Burst*cfg.BurstEvents
		if events > floodEvents || events <= floodEvents-cfg.Burst {
			t.Fatalf("%+v has %d events, want about %d", cfg, events, floodEvents)
		}
	}
}

func TestLauncherReportsChild(t *testing.T) {
	var out bytes.Buffer
	l, err := launch(context.Background(), "/bin/sh", t.TempDir(), &out, nil, "-c", "echo hi; exit 3")
	if err != nil {
		t.Fatal(err)
	}
	wall, rss, err := l.wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Fatalf("exit status not passed through: %v", err)
	}
	if out.String() != "hi\n" || wall <= 0 || rss <= 0 {
		t.Fatalf("stdout %q, wall %v, maxrss %d KiB", out.String(), wall, rss)
	}
}

// sha returns the hex SHA-256 of the encoded trace.
func (in *input) sha() string {
	sum := sha256.Sum256(in.raw)
	return hex.EncodeToString(sum[:])
}

func shas(ins []*input) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.sha()
	}
	return out
}

func TestSameSeedSameTraces(t *testing.T) {
	for _, wl := range workloads {
		if testing.Short() && wl.name == "apps-s1" {
			continue
		}
		a, err := wl.generate(7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := wl.generate(7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shas(a), shas(b)) {
			t.Errorf("%s: seed 7 gave different traces on two calls", wl.name)
		}
		c, err := wl.generate(8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(shas(a), shas(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same traces", wl.name)
		}
	}
}

// A round's traces are new to the cafa-serve children started for it:
// no trace repeats across the rounds of a run.
func TestRoundsAreDistinct(t *testing.T) {
	for _, wl := range workloads {
		seen := map[string]string{}
		for r := 0; r < minRounds; r++ {
			ins, err := wl.generate(3, r)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range ins {
				if prev, dup := seen[in.sha()]; dup {
					t.Fatalf("%s round %d: %s has the same bytes as %s", wl.name, r, in.name, prev)
				}
				seen[in.sha()] = in.name
			}
		}
	}
}

// testScale keeps the in-process app traces of the tests small.
const testScale = 8

// smallApps traces the first n app models at testScale.
func smallApps(t *testing.T, n int) []*input {
	t.Helper()
	var ins []*input
	for k, spec := range apps.Registry[:n] {
		in, err := traceApp(spec, subSeed(5, 0, k), testScale, strings.ToLower(spec.Name)+".trace")
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	return ins
}

// serveRound runs the closed loop against an in-process service.
func serveRound(t *testing.T, ins []*input) *loopResult {
	t.Helper()
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	want, err := expectations(ins)
	if err != nil {
		t.Fatal(err)
	}
	return serveLoop(ts.URL, servePlan{hitPasses: 1, sessions: 1}, ins, want, nil, nil, nil)
}

func TestServeLoopCountsMisses(t *testing.T) {
	ins := smallApps(t, 6)
	lr := serveRound(t, ins)
	if lr.failed != 0 {
		t.Fatalf("clean round failed: %v", lr.errs)
	}
	if len(lr.miss) != len(ins) || len(lr.hit) != len(ins) {
		t.Fatalf("%d misses and %d hits, want %d of each", len(lr.miss), len(lr.hit), len(ins))
	}
	if lr.cacheHitRatio != 0.5 {
		t.Fatalf("cache hit ratio %v, want 0.5", lr.cacheHitRatio)
	}

	// A trace planned twice is a hit the second time, which the
	// per-job check and the cache accounting both catch.
	dup := *ins[0]
	dup.name = "again.trace"
	lr = serveRound(t, append(ins[:3:3], &dup))
	if lr.failed == 0 {
		t.Fatal("a planned miss that hit the cache went unnoticed")
	}
}

// appReport analyzes one app trace in process and returns its input
// and JSON races.
func appReport(t *testing.T, name string) (*input, []report.RaceJSON) {
	t.Helper()
	spec, _ := apps.ByName(name)
	in, err := traceApp(spec, 1, testScale, "app.trace")
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(decode(t, in), analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := report.BuildJSON([]*report.FileReport{{File: in.name, Trace: res.Trace, Result: res}})
	return in, rep.Inputs[0].Races
}

func TestDoctoredAppReportFails(t *testing.T) {
	in, races := appReport(t, "Browser")
	if err := checkRaces(in, nil, races); err != nil {
		t.Fatalf("true report rejected: %v", err)
	}
	dropped := append([]report.RaceJSON(nil), races[1:]...)
	if err := checkRaces(in, nil, dropped); err == nil || !strings.Contains(err.Error(), "missed") {
		t.Errorf("report without a planted race passed: %v", err)
	}
	extra := append(append([]report.RaceJSON(nil), races...), report.RaceJSON{Class: "intra-thread", Field: "notPlanted"})
	if err := checkRaces(in, nil, extra); err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Errorf("report with an extra race passed: %v", err)
	}
	swapped := append([]report.RaceJSON(nil), races...)
	for i, r := range swapped {
		if r.Class == "conventional" {
			swapped[i].Class = "inter-thread"
			break
		}
	}
	if err := checkRaces(in, nil, swapped); err == nil {
		t.Error("report with a misclassified race passed")
	}
}

func TestDoctoredFloodReportFails(t *testing.T) {
	ins, err := genFlood(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := ins[0]
	want, err := expectedRaces(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(decode(t, in), analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(in, want, renderJSON(t, in, res)); err != nil {
		t.Fatalf("true report rejected: %v", err)
	}
	full := res.Races
	res.Races = full[1:]
	if err := checkReport(in, want, renderJSON(t, in, res)); err == nil {
		t.Error("report without one of the shape's races passed")
	}
	res.Races = append(append([]detect.Race(nil), full...), full[0])
	if err := checkReport(in, want, renderJSON(t, in, res)); err == nil {
		t.Error("report with an extra race passed")
	}
}

func decode(t *testing.T, in *input) *trace.Trace {
	t.Helper()
	tr, err := trace.DecodeAuto(bytes.NewReader(in.raw))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func renderJSON(t *testing.T, in *input, res *analysis.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.RenderJSON(&buf, []*report.FileReport{{File: in.name, Trace: res.Trace, Result: res}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// spec mirrors BENCHMARK.json.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) *spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The harness emits exactly the metrics BENCHMARK.json declares, with
// the declared units, and every name is of the allowed alphabet.
func TestMetricNames(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the limit is 200", w.Name, len(w.Why))
		}
		names = append(names, w.Name)
	}
	tot := &e2eTotals{
		setups: []time.Duration{time.Second},
		batch:  cliTotals{entries: 1, wall: time.Second, peaks: []int64{1}},
		stream: cliTotals{entries: 1, wall: time.Second, peaks: []int64{1}},
		miss:   []time.Duration{time.Millisecond}, hit: []time.Duration{time.Millisecond},
		serveWall: time.Second, servePeaks: []int64{1}, attempted: 1,
	}
	emitted := tot.metrics(1)
	if len(emitted) != len(s.EndToEnd) {
		t.Errorf("harness emits %d end-to-end metrics, BENCHMARK.json declares %d", len(emitted), len(s.EndToEnd))
	}
	for _, m := range s.EndToEnd {
		names = append(names, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if got, ok := emitted[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: harness emits %+v (present %t), declared unit %s", m.Name, got, ok, m.Unit)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Errorf("harness emits %d per-layer metrics, BENCHMARK.json declares %d", len(perLayer), len(s.PerLayer))
	}
	for i, m := range s.PerLayer {
		names = append(names, m.Name)
		if i < len(perLayer) && (perLayer[i] != layerMetric{m.Name, m.Unit, m.Better}) {
			t.Errorf("per-layer %d: harness has %+v, BENCHMARK.json %+v", i, perLayer[i], m)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		if !metricName.MatchString(n) {
			t.Errorf("name %q uses characters outside [A-Za-z0-9_.-]", n)
		}
		if i > 0 && names[i-1] == n {
			t.Errorf("name %q is used twice", n)
		}
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{4, 1, 3, 2}
	if got := median(ds); got != 2 { // 2.5 truncated to the nanosecond
		t.Errorf("median = %v", got)
	}
	if got := percentile(ds, 100); got != 4 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile([]time.Duration{7}, 95); got != 7 {
		t.Errorf("p95 of one sample = %v", got)
	}
}

func TestHDQuantile(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	near := func(got time.Duration, want float64) bool {
		return math.Abs(float64(got)/float64(time.Millisecond)-want) < 1e-6
	}
	if got := hdQuantile(ms(5, 1, 4, 2, 3), 0.5); !near(got, 3) {
		t.Errorf("median of 1..5 = %v, want 3ms by symmetry", got)
	}
	if got := hdQuantile(ms(7, 7, 7, 7), 0.95); !near(got, 7) {
		t.Errorf("p95 of a constant sample = %v", got)
	}
	if got := hdQuantile(ms(7), 0.5); !near(got, 7) {
		t.Errorf("median of one sample = %v", got)
	}
	var hundred []int
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, i)
	}
	if got := hdQuantile(ms(hundred...), 0.95); got < 94*time.Millisecond || got > 97*time.Millisecond {
		t.Errorf("p95 of 1..100 = %v", got)
	}
	if lo, hi := hdQuantile(ms(hundred...), 0.5), hdQuantile(ms(hundred...), 0.95); lo >= hi {
		t.Errorf("p50 %v >= p95 %v", lo, hi)
	}
}

// A span's self time excludes the union of its children, overlapping
// or not.
func TestSelfTime(t *testing.T) {
	rec := &recorder{spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
	}}
	tot := rec.totals()
	if got := tot["root"].self; got != 100-40-10 {
		t.Errorf("root self = %d, want 50", got)
	}
	if got := tot["b"].self; got != 20+30 || tot["b"].n != 2 {
		t.Errorf("b self = %d over %d spans", got, tot["b"].n)
	}
}
