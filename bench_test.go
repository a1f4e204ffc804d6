package cafa

// Benchmarks regenerating the paper's evaluation artifacts. One bench
// per table/figure plus component benches for the pipeline stages.
// The benches run at a reduced filler scale so `go test -bench=.`
// stays tractable; `cmd/cafa-bench -all -scale 1` regenerates the
// full-volume numbers (see EXPERIMENTS.md).

import (
	"bytes"
	"fmt"
	"testing"

	"cafa/internal/apps"
	"cafa/internal/detect"
	"cafa/internal/hb"
	"cafa/internal/lockset"
	"cafa/internal/report"
	"cafa/internal/sim"
	"cafa/internal/trace"
	"cafa/internal/vclock"
)

const benchScale = 8

// traceApp runs one app model and returns its trace.
func traceApp(b *testing.B, name string) *trace.Trace {
	b.Helper()
	spec, ok := apps.ByName(name)
	if !ok {
		b.Fatalf("no app %q", name)
	}
	col := trace.NewCollector()
	out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	if err := out.Sys.Run(); err != nil {
		b.Fatal(err)
	}
	return col.T
}

// BenchmarkTable1 regenerates Table 1: the full trace → causality
// model → detector pipeline, one sub-benchmark per application.
func BenchmarkTable1(b *testing.B) {
	for _, spec := range apps.Registry {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var reported int
			for i := 0; i < b.N; i++ {
				r, err := report.RunApp(spec, report.RunOptions{Scale: benchScale})
				if err != nil {
					b.Fatal(err)
				}
				reported = r.Reported
			}
			b.ReportMetric(float64(reported), "races")
			b.ReportMetric(float64(spec.Paper.Reported), "paper-races")
		})
	}
}

// BenchmarkFig8 regenerates Figure 8: the same workload executed with
// the serializing tracer vs. uninstrumented; the interesting output is
// the ratio of the two sub-benchmark times per app.
func BenchmarkFig8(b *testing.B) {
	for _, spec := range apps.Registry {
		spec := spec
		for _, mode := range []string{"baseline", "traced"} {
			mode := mode
			b.Run(fmt.Sprintf("%s/%s", spec.Name, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var tracer trace.Tracer = trace.Discard{}
					if mode == "traced" {
						tracer = trace.NewDeviceSink()
					}
					out, err := apps.Build(spec, sim.Config{Tracer: tracer, Seed: 1}, benchScale)
					if err != nil {
						b.Fatal(err)
					}
					if err := out.Sys.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLowLevelBaseline regenerates the §4.1 claim: the naive
// conflicting-access detector on ConnectBot's trace.
func BenchmarkLowLevelBaseline(b *testing.B) {
	tr := traceApp(b, "ConnectBot")
	g, err := hb.Build(tr, hb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(detect.Naive(g))
	}
	b.ReportMetric(float64(n), "naive-races")
}

// BenchmarkHBBuild measures causality-model construction (graph and
// rule fixpoint) on the largest app trace.
func BenchmarkHBBuild(b *testing.B) {
	tr := traceApp(b, "Camera")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hb.Build(tr, hb.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Entries)), "entries")
}

// BenchmarkDetect measures the use-free detector alone.
func BenchmarkDetect(b *testing.B) {
	tr := traceApp(b, "Browser")
	g, err := hb.Build(tr, hb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	conv, err := hb.Build(tr, hb.Options{Conventional: true})
	if err != nil {
		b.Fatal(err)
	}
	ls, err := lockset.Compute(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detect.Detect(detect.Input{Trace: tr, Graph: g, Conventional: conv, Locks: ls}, detect.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRun measures the simulated runtime alone (uninstrumented).
func BenchmarkSimRun(b *testing.B) {
	spec, _ := apps.ByName("MyTracks")
	for i := 0; i < b.N; i++ {
		out, err := apps.Build(spec, sim.Config{Tracer: trace.Discard{}, Seed: 1}, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if err := out.Sys.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceCodec measures the logger-device serialization round
// trip.
func BenchmarkTraceCodec(b *testing.B) {
	tr := traceApp(b, "VLC")
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := tr.Encode(&w); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(data)))
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := trace.Decode(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(data)))
	})
}

// BenchmarkFastTrackBaseline measures the thread-based vector-clock
// detector from §7.1 on an app trace (it reports nothing intra-looper
// by construction).
func BenchmarkFastTrackBaseline(b *testing.B) {
	tr := traceApp(b, "ZXing")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vclock.FastTrack(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation measures the detector with each pruning stage
// disabled (the design-choice ablations called out in DESIGN.md).
func BenchmarkAblation(b *testing.B) {
	tr := traceApp(b, "Firefox")
	g, err := hb.Build(tr, hb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	conv, err := hb.Build(tr, hb.Options{Conventional: true})
	if err != nil {
		b.Fatal(err)
	}
	ls, err := lockset.Compute(tr)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		opts detect.Options
	}{
		{"full", detect.Options{}},
		{"no-ifguard", detect.Options{DisableIfGuard: true}},
		{"no-intra-alloc", detect.Options{DisableIntraEventAlloc: true}},
		{"no-lockset", detect.Options{DisableLockset: true}},
		{"no-heuristics", detect.Options{DisableIfGuard: true, DisableIntraEventAlloc: true, DisableLockset: true}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var races int
			for i := 0; i < b.N; i++ {
				res, err := detect.Detect(detect.Input{Trace: tr, Graph: g, Conventional: conv, Locks: ls}, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				races = len(res.Races)
			}
			b.ReportMetric(float64(races), "races")
		})
	}
}
