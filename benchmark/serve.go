package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"time"

	"cafa/internal/report"
	"cafa/internal/service/api"
	"cafa/internal/service/client"
)

// loopResult is one closed-loop session against one cafa-serve.
type loopResult struct {
	miss, hit     []time.Duration // upload start to fetched report
	wall          time.Duration
	attempted     int
	failed        int
	errs          []error
	queueDepthMax int     // traced runs only
	cacheHitRatio float64 // hits / lookups, from /v1/stats
	plannedMisses int
	hitsTried     int
}

func (lr *loopResult) fail(err error) {
	lr.failed++
	lr.errs = append(lr.errs, err)
}

// servePlan is how a closed loop issues its jobs.
type servePlan struct {
	// hitPasses is how many times every trace is re-uploaded after
	// every miss is served: a hit is one cheap job among jobs of very
	// different sizes, so it needs more samples than one per trace for
	// a steady median.
	hitPasses int
	// sessions is how many cafa-serve children serve a round's traces,
	// one after another. Each starts with an empty cache, so each
	// serves every trace as a miss again: the workloads have few, large
	// traces per round, and more sessions multiply their miss samples
	// without generating more traces.
	sessions int
}

// serveLoop runs the closed loop with one client, the same
// one-at-a-time discipline as the CLI phase, so each latency is one
// job's service time: every input as a miss, largest first, then
// hitPasses passes of hits. A miss uploads a fresh trace; a hit
// re-uploads a trace whose miss has completed. Every job is uploaded,
// waited on to done and its report fetched. Miss reports are checked
// like CLI reports and must equal the CLI batch report of the same
// trace when one is given; hit reports must equal their miss's. With
// rec non-nil each job is a span tree (submit, wait, fetch) and the
// queue depth is sampled after every upload. With mark non-nil the
// loop calls mark after each segment of jobs; the loop's wall time
// leaves those pauses out.
func serveLoop(base string, plan servePlan, ins []*input, want map[string][]report.RaceJSON, cliReports map[string][]byte, rec *recorder, mark func()) *loopResult {
	order := append([]*input(nil), ins...)
	sort.SliceStable(order, func(i, j int) bool { return len(order[i].raw) > len(order[j].raw) })
	hc := &http.Client{Timeout: 2 * time.Minute}
	defer hc.CloseIdleConnections()
	c := &client.Client{Base: base, HTTP: hc}

	lr := &loopResult{plannedMisses: len(order)}
	missReports := make(map[string][]byte, len(order))
	record := func(hit bool, d time.Duration, depth int, err error) {
		lr.attempted++
		if hit {
			lr.hitsTried++
		}
		if err != nil {
			lr.fail(err)
			return
		}
		if hit {
			lr.hit = append(lr.hit, d)
		} else {
			lr.miss = append(lr.miss, d)
		}
		lr.queueDepthMax = max(lr.queueDepthMax, depth)
	}
	miss := func(in *input) {
		raw, d, depth, err := serveJob(c, in, false, rec)
		if err == nil {
			err = checkReport(in, want[in.name], raw)
		}
		if err == nil && cliReports[in.name] != nil && !bytes.Equal(raw, cliReports[in.name]) {
			err = fmt.Errorf("%s: cafa-serve report differs from the cafa-analyze report", in.name)
		}
		record(false, d, depth, err)
		if err == nil {
			missReports[in.name] = raw
		}
	}
	hit := func(in *input) {
		missRaw := missReports[in.name]
		if missRaw == nil {
			return // its miss failed and was counted
		}
		raw, d, depth, err := serveJob(c, in, true, rec)
		if err == nil && !bytes.Equal(raw, missRaw) {
			err = fmt.Errorf("%s: cache hit report differs from its miss", in.name)
		}
		record(true, d, depth, err)
	}
	// pass hands every input to one job function in order.
	pass := func(job func(*input)) {
		c0 := time.Now()
		for i, in := range order {
			job(in)
			if mark != nil && i+1 < len(order) && time.Since(c0) >= segment {
				lr.wall += time.Since(c0)
				mark()
				c0 = time.Now()
			}
		}
		lr.wall += time.Since(c0)
	}
	pass(miss)
	for k := 0; k < plan.hitPasses; k++ {
		pass(hit)
	}

	st, err := c.Stats()
	lr.attempted++ // the session's own accounting check
	switch {
	case err != nil:
		lr.fail(fmt.Errorf("stats: %w", err))
	case st.Cache.Misses != int64(lr.plannedMisses) || st.Cache.Hits != int64(lr.hitsTried):
		lr.fail(fmt.Errorf("cache counted %d misses and %d hits, the plan made %d and %d",
			st.Cache.Misses, st.Cache.Hits, lr.plannedMisses, lr.hitsTried))
	case st.JobsByState[api.StateFailed] != 0:
		lr.fail(fmt.Errorf("%d jobs failed", st.JobsByState[api.StateFailed]))
	}
	if err == nil && st.Cache.Hits+st.Cache.Misses > 0 {
		lr.cacheHitRatio = float64(st.Cache.Hits) / float64(st.Cache.Hits+st.Cache.Misses)
	}
	return lr
}

// serveJob uploads in, waits for the job to be done, and fetches its
// report. It returns the report and the time from upload start to the
// fetched report. hit states whether the upload must be answered from
// the cache.
func serveJob(c *client.Client, in *input, hit bool, rec *recorder) ([]byte, time.Duration, int, error) {
	kind := "miss"
	if hit {
		kind = "hit"
	}
	var root int
	step := func(name string, fn func() error) error {
		if rec == nil {
			return fn()
		}
		id := rec.begin(name, in.name+"#"+kind, root)
		defer rec.end(id)
		return fn()
	}
	if rec != nil {
		root = rec.begin("service.job", in.name+"#"+kind, 0)
		defer rec.end(root)
	}
	t0 := time.Now()
	var (
		j     api.Job
		depth int
		raw   []byte
	)
	err := step("service.submit", func() (err error) {
		j, err = c.Submit(in.raw, in.name, "")
		return err
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: submit (%s): %w", in.name, kind, err)
	}
	if j.Cached != hit {
		return nil, 0, 0, fmt.Errorf("%s: planned %s, but cached=%t", in.name, kind, j.Cached)
	}
	if rec != nil {
		// Sampled outside the timed steps; adds one request per job.
		st, err := c.Stats()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("stats: %w", err)
		}
		depth = st.QueueDepth
	}
	err = step("service.wait", func() (err error) {
		j, err = c.Wait(j.ID, time.Minute)
		return err
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: wait (%s): %w", in.name, kind, err)
	}
	if j.State != api.StateDone {
		return nil, 0, 0, fmt.Errorf("%s: job %s %s: %s", in.name, j.ID, j.State, j.Error)
	}
	err = step("service.fetch", func() (err error) {
		raw, err = c.Report(j.ID)
		return err
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: report (%s): %w", in.name, kind, err)
	}
	return raw, time.Since(t0), depth, nil
}
