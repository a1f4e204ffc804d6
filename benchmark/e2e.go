package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cafa/internal/report"
)

// minRounds is the fewest rounds of an end-to-end run: each round sets
// up afresh, so setup_s is a median of at least two.
const minRounds = 2

// cliTotals accumulates one cafa-analyze mode over a run.
type cliTotals struct {
	entries int
	wall    time.Duration
	runs    int
	peaks   []int64 // per round, the highest child ru_maxrss (KiB)
}

func (t *cliTotals) add(round, entries int, run childRun) {
	for len(t.peaks) <= round {
		t.peaks = append(t.peaks, 0)
	}
	t.peaks[round] = max(t.peaks[round], run.maxRSS)
	t.entries += entries
	t.wall += run.wall
	t.runs++
}

// e2eTotals accumulates an end-to-end run's wall times; metrics converts
// them into reference time (see calibrator).
type e2eTotals struct {
	setups            []time.Duration
	batch, stream     cliTotals
	miss, hit         []time.Duration
	serveWall         time.Duration
	servePeaks        []int64 // per server session, cafa-serve's ru_maxrss (KiB)
	attempted, failed int
	errs              []error
}

func (t *e2eTotals) fail(err error) {
	t.failed++
	t.errs = append(t.errs, err)
}

// runEndToEnd runs rounds until at least minRounds rounds are done and
// cfg.seconds have passed. A round sets up (generates and writes its
// traces, starts cafa-serve), then measures: every trace through
// cafa-analyze in batch and -stream mode, one child at a time, then the
// closed serve loop over the same traces. The calibration kernel runs
// after the set-up and after every segment of measured work.
func runEndToEnd(ctx context.Context, cfg *config, info *runInfo) (*result, error) {
	cal, err := newCalibrator(ctx, cfg.work)
	if err != nil {
		return nil, err
	}
	t := &e2eTotals{}
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start) < cfg.seconds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		ins, dir, err := setUp(cfg, r)
		if err != nil {
			return nil, err
		}
		srv, err := startServer(ctx, filepath.Join(cfg.bin, "cafa-serve"), dir)
		if err != nil {
			return nil, err
		}
		t.setups = append(t.setups, time.Since(t0))
		cal.mark()
		addInputs(info, ins)
		want, err := expectations(ins)
		if err != nil {
			srv.kill()
			return nil, err
		}
		// The load generator's own set-up garbage is collected now, not
		// on the CPU the measured children need.
		runtime.GC()
		batchReports := t.cliRound(ctx, cal, filepath.Join(cfg.bin, "cafa-analyze"), dir, r, ins, want)
		for s := 0; s < cfg.wl.serve.sessions; s++ {
			if s > 0 {
				if srv, err = startServer(ctx, filepath.Join(cfg.bin, "cafa-serve"), dir); err != nil {
					return nil, err
				}
			}
			lr := serveLoop(srv.base, cfg.wl.serve, ins, want, batchReports, nil, cal.mark)
			rss, err := srv.stop()
			t.attempted += lr.attempted + 1
			t.failed += lr.failed
			t.errs = append(t.errs, lr.errs...)
			if err != nil {
				t.fail(err)
			} else {
				t.servePeaks = append(t.servePeaks, rss)
			}
			t.miss = append(t.miss, lr.miss...)
			t.hit = append(t.hit, lr.hit...)
			t.serveWall += lr.wall
			cal.mark()
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	if cal.err != nil {
		return nil, cal.err
	}
	if t.batch.runs == 0 || t.stream.runs == 0 || len(t.miss) == 0 || len(t.hit) == 0 || len(t.servePeaks) == 0 {
		return nil, fmt.Errorf("no successful operation to measure: %v", errText(t.errs))
	}
	info.Errors = errText(t.errs)
	info.Samples["setups"] = len(t.setups)
	info.Samples["batch_runs"] = t.batch.runs
	info.Samples["stream_runs"] = t.stream.runs
	info.Samples["serve_misses"] = len(t.miss)
	info.Samples["serve_hits"] = len(t.hit)
	info.Samples["kernels"] = len(cal.samples)
	info.KernelMs = float64(cal.medianSample()) / float64(time.Millisecond)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: t.metrics(cal.factor())}, nil
}

// cliRound runs every input through cafa-analyze, batch then -stream,
// one child at a time, with a kernel sample after each segment of
// children. A batch report must pass the input's check and a stream
// report must equal the batch report byte for byte. It returns the
// batch reports that passed, by input name.
func (t *e2eTotals) cliRound(ctx context.Context, cal *calibrator, analyze, dir string, round int, ins []*input, want map[string][]report.RaceJSON) map[string][]byte {
	batchReports := make(map[string][]byte, len(ins))
	var sinceMark time.Duration
	for _, in := range ins {
		t.attempted += 2
		b, err := runAnalyze(ctx, analyze, dir, "-json", in.name)
		if err == nil {
			err = checkReport(in, want[in.name], b.stdout)
		}
		if err != nil {
			t.fail(err)
		} else {
			t.batch.add(round, in.entries, b)
			batchReports[in.name] = b.stdout
		}
		s, err := runAnalyze(ctx, analyze, dir, "-json", "-stream", in.name)
		switch {
		case err != nil:
		case batchReports[in.name] == nil:
			err = checkReport(in, want[in.name], s.stdout)
		case !bytes.Equal(s.stdout, b.stdout):
			err = fmt.Errorf("%s: -stream report differs from the batch report", in.name)
		}
		if err != nil {
			t.fail(err)
		} else {
			t.stream.add(round, in.entries, s)
		}
		if sinceMark += b.wall + s.wall; sinceMark >= segment {
			cal.mark()
			sinceMark = 0
		}
	}
	cal.mark()
	return batchReports
}

// metrics computes the end-to-end metrics, converting wall times into
// reference time with the run's calibration factor f.
func (t *e2eTotals) metrics(f float64) map[string]metric {
	ms := func(d time.Duration) float64 { return float64(scale(d, f)) / float64(time.Millisecond) }
	s := func(d time.Duration) float64 { return scale(d, f).Seconds() }
	// A round's CLI peak is its largest child; the run reports the
	// lowest round peak.
	mib := func(peaks []int64) float64 {
		var seen []int64 // rounds whose every child failed have no peak
		for _, p := range peaks {
			if p > 0 {
				seen = append(seen, p)
			}
		}
		return float64(percentile(seen, 0)) / 1024
	}
	return map[string]metric{
		"setup_s":              {s(median(t.setups)), "s"},
		"batch_entries_per_s":  {float64(t.batch.entries) / s(t.batch.wall), "1/s"},
		"stream_entries_per_s": {float64(t.stream.entries) / s(t.stream.wall), "1/s"},
		"batch_peak_rss_mb":    {mib(t.batch.peaks), "MiB"},
		"stream_peak_rss_mb":   {mib(t.stream.peaks), "MiB"},
		"serve_jobs_per_s":     {float64(len(t.miss)+len(t.hit)) / s(t.serveWall), "1/s"},
		"serve_miss_p50_ms":    {ms(hdQuantile(t.miss, 0.50)), "ms"},
		"serve_miss_p95_ms":    {ms(hdQuantile(t.miss, 0.95)), "ms"},
		"serve_hit_p50_ms":     {ms(hdQuantile(t.hit, 0.50)), "ms"},
		"serve_peak_rss_mb":    {meanMiB(t.servePeaks), "MiB"},
		"ok_frac":              {1 - float64(t.failed)/float64(t.attempted), "ratio"},
	}
}

// meanMiB is the mean of server session peaks (KiB) in MiB. A
// session's peak takes one of two values some 20% apart, depending on
// whether a finished job's garbage is still uncollected when the next
// job allocates, and which one a round gets depends on its traces; the
// mean over the run's sessions weighs both.
func meanMiB(peaks []int64) float64 {
	var sum int64
	for _, p := range peaks {
		sum += p
	}
	return float64(sum) / float64(len(peaks)) / 1024
}

// median is the 50th percentile.
func median(ds []time.Duration) time.Duration { return percentile(ds, 50) }

// percentile interpolates linearly between the closest ranks.
func percentile[T ~int64](xs []T, p float64) T {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + T((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}
