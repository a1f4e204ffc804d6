package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"cafa/internal/analysis"
	"cafa/internal/detect"
	"cafa/internal/hb"
	"cafa/internal/lockset"
	"cafa/internal/provenance"
	"cafa/internal/report"
	"cafa/internal/trace"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// perLayer lists the traced run's metrics in output order. Self times
// and allocations are totals over one pass across the workload's
// traces; counts are sums over those traces (live_max and
// queue_depth_max are maxima); service.*_ms are means per job.
var perLayer = []layerMetric{
	{"trace.decode.self_ms", "ms", "lower"},
	{"trace.decode.alloc_mb", "MiB", "lower"},
	{"trace.stream.self_ms", "ms", "lower"},
	{"trace.validate.self_ms", "ms", "lower"},
	{"trace.entries", "count", "higher"},
	{"hb.prescan.self_ms", "ms", "lower"},
	{"hb.scanner.self_ms", "ms", "lower"},
	{"hb.graph.self_ms", "ms", "lower"},
	{"hb.graph.alloc_mb", "MiB", "lower"},
	{"hb.graph.nodes", "count", "lower"},
	{"hb.graph.base_edges", "count", "lower"},
	{"hb.graph.rule_edges", "count", "lower"},
	{"hb.graph.rounds", "count", "lower"},
	{"hb.graph.closure_mb", "MiB", "lower"},
	{"hb.conventional.self_ms", "ms", "lower"},
	{"hb.conventional.alloc_mb", "MiB", "lower"},
	{"hb.conventional.nodes", "count", "lower"},
	{"hb.conventional.base_edges", "count", "lower"},
	{"hb.conventional.rule_edges", "count", "lower"},
	{"hb.conventional.rounds", "count", "lower"},
	{"hb.conventional.closure_mb", "MiB", "lower"},
	{"lockset.compute.self_ms", "ms", "lower"},
	{"lockset.compute.alloc_mb", "MiB", "lower"},
	{"lockset.tracker.self_ms", "ms", "lower"},
	{"lockset.tracker.alloc_mb", "MiB", "lower"},
	{"detect.self_ms", "ms", "lower"},
	{"detect.extract.self_ms", "ms", "lower"},
	{"detect.extracted.self_ms", "ms", "lower"},
	{"detect.extract.live_max", "count", "lower"},
	{"detect.candidates", "count", "lower"},
	{"detect.races", "count", "higher"},
	{"detect.race_ratio", "ratio", "higher"},
	{"provenance.collect.self_ms", "ms", "lower"},
	{"provenance.bundle.self_ms", "ms", "lower"},
	{"report.json.self_ms", "ms", "lower"},
	{"report.bundle.self_ms", "ms", "lower"},
	{"report.html.self_ms", "ms", "lower"},
	{"report.bytes", "count", "lower"},
	{"service.submit_ms", "ms", "lower"},
	{"service.wait_ms", "ms", "lower"},
	{"service.fetch_ms", "ms", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.queue_depth_max", "count", "lower"},
	{"analysis.serial_sum_ms", "ms", "lower"},
	{"analysis.pipeline_ms", "ms", "lower"},
	{"analysis.stream_ms", "ms", "lower"},
}

// serialLayers are the batch pipeline's layers, whose self times sum
// to analysis.serial_sum_ms: the same work as one Pipeline.Analyze
// call, done one layer after another.
var serialLayers = []string{"hb.prescan", "hb.graph", "hb.conventional", "lockset.compute", "detect"}

// counts are the traced run's exact counts for one pass.
type counts struct {
	v       map[string]float64
	liveMax int
}

func (c *counts) addGraph(prefix string, st hb.Stats) {
	c.v[prefix+".nodes"] += float64(st.Nodes)
	c.v[prefix+".base_edges"] += float64(st.BaseEdges)
	c.v[prefix+".rule_edges"] += float64(st.RuleEdges)
	c.v[prefix+".rounds"] += float64(st.Rounds)
	// The dense closure is one bit row of ceil(n/64) words per node.
	n := st.Nodes
	c.v[prefix+".closure_mb"] += float64(n*((n+63)/64)*8) / (1 << 20)
}

// runTraced generates round 0 once, then makes passes over it until
// cfg.seconds have passed: each pass calls every layer serially on
// every trace, and on apps-s1 also runs the closed serve loop with a
// span per job step against a fresh cafa-serve. Times are means over
// the passes; counts come from the first pass (every pass repeats
// them).
func runTraced(ctx context.Context, cfg *config, info *runInfo) (*result, error) {
	ins, err := cfg.wl.generate(cfg.seed, 0)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	addInputs(info, ins)
	want, err := expectations(ins)
	if err != nil {
		return nil, err
	}
	var (
		passes            []*recorder
		first             *counts
		attempted, failed int
		errs              []error
	)
	start := time.Now()
	for p := 0; p == 0 || time.Since(start) < cfg.seconds; p++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec := newRecorder()
		c := &counts{v: map[string]float64{}}
		for _, in := range ins {
			attempted++
			if err := traceLayers(rec, c, in, want[in.name], cfg.wl.serveLayers); err != nil {
				failed++
				errs = append(errs, err)
			}
		}
		c.v["detect.extract.live_max"] = float64(c.liveMax)
		if cfg.wl.serveLayers {
			srv, err := startServer(ctx, filepath.Join(cfg.bin, "cafa-serve"), cfg.work)
			if err != nil {
				return nil, err
			}
			lr := serveLoop(srv.base, cfg.wl.serve, ins, want, nil, rec, nil)
			_, err = srv.stop()
			attempted += lr.attempted + 1
			failed += lr.failed
			errs = append(errs, lr.errs...)
			if err != nil {
				failed++
				errs = append(errs, err)
			}
			c.v["service.cache_hit_ratio"] = lr.cacheHitRatio
			c.v["service.queue_depth_max"] = float64(lr.queueDepthMax)
		}
		passes = append(passes, rec)
		if first == nil {
			first = c
		}
	}
	info.Errors = errText(errs)
	info.Samples["passes"] = len(passes)
	spansPath, err := writeSpans(cfg, info, passes)
	if err != nil {
		return nil, err
	}
	info.Spans = spansPath

	// Per-name self time and allocation, averaged over the passes.
	selfMs := map[string]float64{}
	allocMB := map[string]float64{}
	perJob := map[string]float64{}
	for _, rec := range passes {
		for name, t := range rec.totals() {
			selfMs[name] += float64(t.self) / float64(time.Millisecond) / float64(len(passes))
			allocMB[name] += float64(t.alloc) / (1 << 20) / float64(len(passes))
			perJob[name] += float64(t.self) / float64(time.Millisecond) / float64(t.n) / float64(len(passes))
		}
	}
	vals := first.v
	for _, name := range []string{"trace.decode", "trace.stream", "trace.validate", "hb.prescan", "hb.scanner",
		"hb.graph", "hb.conventional", "lockset.compute", "lockset.tracker", "detect", "detect.extract",
		"detect.extracted", "provenance.collect", "provenance.bundle", "report.json", "report.bundle", "report.html"} {
		vals[name+".self_ms"] = selfMs[name]
	}
	for _, name := range []string{"trace.decode", "hb.graph", "hb.conventional", "lockset.compute", "lockset.tracker"} {
		vals[name+".alloc_mb"] = allocMB[name]
	}
	for _, name := range []string{"submit", "wait", "fetch"} {
		vals["service."+name+"_ms"] = perJob["service."+name]
	}
	for _, name := range serialLayers {
		vals["analysis.serial_sum_ms"] += selfMs[name]
	}
	vals["analysis.pipeline_ms"] = selfMs["analysis.pipeline"]
	vals["analysis.stream_ms"] = selfMs["analysis.stream"]
	if vals["detect.candidates"] > 0 {
		vals["detect.race_ratio"] = vals["detect.races"] / vals["detect.candidates"]
	}
	m := make(map[string]metric, len(perLayer))
	for _, lm := range perLayer {
		m[lm.name] = metric{vals[lm.name], lm.unit}
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// traceLayers calls every layer on one trace, each in its own span
// under a per-trace root, and checks that the batch path, the
// per-event path and both pipelines agree and pass the input's check.
// The per-event consumers are timed from outside: the trace is decoded
// once and its entry slice fed through each consumer in its own loop.
func traceLayers(rec *recorder, c *counts, in *input, want []report.RaceJSON, serveLayers bool) (err error) {
	root := rec.begin("trace", in.name, 0)
	defer rec.end(root)
	layer := func(name string, fn func() error) {
		if err == nil {
			rec.layer(root, in.name, name, func() { err = fn() })
		}
	}
	var (
		tr, hdr    *trace.Trace
		ps         *hb.Prescan
		g, conv    *hb.Graph
		ls, sparse *lockset.Sets
		batch, ext *detect.Result
		x          *detect.Extractor
		pres, sres *analysis.Result
	)
	layer("trace.decode", func() (err error) {
		tr, err = trace.DecodeAuto(bytes.NewReader(in.raw))
		return err
	})
	layer("trace.stream", func() error {
		dec, err := trace.NewStreamDecoder(bytes.NewReader(in.raw))
		if err != nil {
			return err
		}
		hdr = dec.Header()
		for n := 0; ; n++ {
			if _, err := dec.Next(); errors.Is(err, io.EOF) {
				if n != len(tr.Entries) {
					return fmt.Errorf("stream decoded %d entries, batch %d", n, len(tr.Entries))
				}
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	layer("trace.validate", func() error {
		v := trace.NewValidator(hdr)
		for i := range tr.Entries {
			if err := v.Entry(&tr.Entries[i]); err != nil {
				return err
			}
		}
		return v.Finish()
	})
	layer("hb.prescan", func() (err error) {
		ps, err = hb.Scan(tr)
		return err
	})
	layer("hb.scanner", func() error {
		sc := hb.NewScanner(hdr)
		for i := range tr.Entries {
			if err := sc.Consume(&tr.Entries[i]); err != nil {
				return err
			}
		}
		sc.Finish()
		return nil
	})
	layer("hb.graph", func() (err error) {
		g, err = hb.BuildFromScan(ps, hb.Options{})
		return err
	})
	layer("hb.conventional", func() (err error) {
		conv, err = hb.BuildFromScan(ps, hb.Options{Conventional: true})
		return err
	})
	layer("lockset.compute", func() (err error) {
		ls, err = lockset.Compute(tr)
		return err
	})
	layer("lockset.tracker", func() error {
		tk := lockset.NewTracker(0)
		for i := range tr.Entries {
			if err := tk.Consume(i, &tr.Entries[i]); err != nil {
				return err
			}
		}
		sparse = tk.Sets()
		return nil
	})
	layer("detect", func() (err error) {
		batch, err = detect.Detect(detect.Input{Trace: tr, Graph: g, Conventional: conv, Locks: ls}, detect.Options{})
		return err
	})
	layer("detect.extract", func() error {
		x = detect.NewExtractor(nil, true)
		for i := range tr.Entries {
			x.Consume(i, &tr.Entries[i])
			c.liveMax = max(c.liveMax, x.Live())
		}
		return nil
	})
	layer("detect.extracted", func() (err error) {
		ext, err = detect.DetectExtracted(detect.Input{Trace: hdr, Graph: g, Conventional: conv, Locks: sparse}, x, detect.Options{})
		return err
	})
	var collected *detect.Result
	var rendered []byte
	if serveLayers {
		collected, rendered = serveRender(layer, c, in, tr, g, conv, ls)
	}
	var gStats, convStats hb.Stats
	if err == nil {
		gStats, convStats = g.Stats(), conv.Stats()
	}
	// Only the stats of the serial layers' graphs are needed from here
	// on. Dropping the graphs, and the pipeline's once it is checked,
	// keeps at most two dense closures alive at a time.
	ps, g, conv, ls = nil, nil, nil, nil
	layer("analysis.pipeline", func() (err error) {
		pres, err = analysis.New(analysis.Options{}).Analyze(tr)
		return err
	})
	if pres != nil {
		pres.Graph, pres.Conventional, pres.Locks = nil, nil, nil
	}
	layer("analysis.stream", func() (err error) {
		sres, err = analysis.New(analysis.Options{}).AnalyzeStream(bytes.NewReader(in.raw))
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}

	switch {
	case !reflect.DeepEqual(batch.Races, ext.Races) || batch.Stats != ext.Stats:
		return fmt.Errorf("%s: per-event detection differs from batch detection", in.name)
	case !reflect.DeepEqual(batch.Races, pres.Races) || batch.Stats != pres.Stats:
		return fmt.Errorf("%s: Pipeline.Analyze differs from the serial layers", in.name)
	case !reflect.DeepEqual(batch.Races, sres.Races) || batch.Stats != sres.Stats:
		return fmt.Errorf("%s: AnalyzeStream differs from the serial layers", in.name)
	case serveLayers && !reflect.DeepEqual(batch.Races, collected.Races):
		return fmt.Errorf("%s: detection with an evidence collector differs from detection without", in.name)
	}
	if serveLayers {
		if err := checkReport(in, want, rendered); err != nil {
			return err
		}
	}
	rep := report.BuildJSON([]*report.FileReport{{File: in.name, Trace: tr, Result: pres}})
	if err := checkRaces(in, want, rep.Inputs[0].Races); err != nil {
		return err
	}
	c.v["trace.entries"] += float64(len(tr.Entries))
	c.addGraph("hb.graph", gStats)
	c.addGraph("hb.conventional", convStats)
	c.v["detect.candidates"] += float64(batch.Stats.Candidates)
	c.v["detect.races"] += float64(len(batch.Races))
	return nil
}

// serveRender times what a cafa-serve job adds after detection:
// evidence collection, bundle assembly and the three renderings. It
// returns the detection made with the collector and the rendered JSON
// report.
func serveRender(layer func(string, func() error), c *counts, in *input,
	tr *trace.Trace, g, conv *hb.Graph, ls *lockset.Sets) (*detect.Result, []byte) {
	var (
		col              *provenance.Collector
		collected        *detect.Result
		reps             []*report.FileReport
		bundle           *provenance.Bundle
		js, bundleJS, ht bytes.Buffer
	)
	layer("provenance.collect", func() (err error) {
		col = provenance.NewCollector(tr, g, conv, ls, provenance.Options{})
		collected, err = detect.Detect(detect.Input{Trace: tr, Graph: g, Conventional: conv, Locks: ls, Collector: col}, detect.Options{})
		return err
	})
	layer("provenance.bundle", func() error {
		reps = []*report.FileReport{{File: in.name, Trace: tr, Result: &analysis.Result{
			Trace: tr, Races: collected.Races, Stats: collected.Stats, GraphStats: g.Stats(), ConvStats: conv.Stats(),
			Graph: g, Conventional: conv, Locks: ls, Evidence: col,
		}}}
		bundle = report.BuildBundle(reps)
		return nil
	})
	layer("report.json", func() error { return report.RenderJSON(&js, reps) })
	layer("report.bundle", func() error { return bundle.WriteJSON(&bundleJS) })
	layer("report.html", func() error { return provenance.WriteHTML(&ht, bundle) })
	c.v["report.bytes"] += float64(js.Len() + bundleJS.Len() + ht.Len())
	return collected, js.Bytes()
}

// writeSpans writes every pass's spans, with the run's facts, under
// .bench_build/spans and returns the path relative to the root.
func writeSpans(cfg *config, info *runInfo, passes []*recorder) (string, error) {
	dir := filepath.Join(cfg.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", cfg.wl.name, cfg.seed))
	var buf bytes.Buffer
	buf.WriteString(`{"info":`)
	if err := json.NewEncoder(&buf).Encode(info); err != nil {
		return "", err
	}
	buf.WriteString(`,"passes":[`)
	for i, rec := range passes {
		if i > 0 {
			buf.WriteString(",")
		}
		if err := rec.write(&buf); err != nil {
			return "", err
		}
	}
	buf.WriteString("]}\n")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	rel, _ := filepath.Rel(cfg.root, path)
	return rel, nil
}
