package hb

import (
	"slices"
	"sync"
	"testing"

	"cafa/internal/apps"
	"cafa/internal/sim"
	"cafa/internal/synth"
	"cafa/internal/trace"
)

// fullRecompute recomputes g's closure from scratch over its final
// edge set — the seed algorithm the incremental closure replaced.
func fullRecompute(g *Graph) *bitmat {
	m := newBitmat(len(g.nodes))
	for i := len(g.nodes) - 1; i >= 0; i-- {
		m.set(i, i)
		for _, w := range g.adj[i] {
			m.orInto(i, int(w))
		}
	}
	return m
}

func assertClosureExact(t *testing.T, g *Graph) {
	t.Helper()
	want := fullRecompute(g)
	if len(want.bits) != len(g.reach.bits) {
		t.Fatalf("closure matrix size mismatch: %d vs %d words", len(g.reach.bits), len(want.bits))
	}
	for i := range want.bits {
		if want.bits[i] != g.reach.bits[i] {
			t.Fatalf("incremental closure diverges from full recompute at word %d (node %d)",
				i, i/want.words)
		}
	}
}

// assertConvExact checks the on-demand conventional model g against
// the dense reference buildFull computes over the same Prescan: equal
// stats (so the fixpoint adds no rule edges), and one bounded search
// per source marking exactly that source's dense closure row.
func assertConvExact(t *testing.T, ps *Prescan, g *Graph) {
	t.Helper()
	if g.reach != nil {
		t.Fatal("conventional model built a dense closure")
	}
	full, err := buildFull(ps, Options{Conventional: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats() != full.Stats() {
		t.Fatalf("on-demand stats %+v != dense reference stats %+v", g.Stats(), full.Stats())
	}
	var s search
	n := int32(len(g.nodes))
	for u := int32(0); u < n; u++ {
		s.run(g.adj, u, n-1, -1)
		for v := int32(0); v < n; v++ {
			if got, want := v >= u && s.has(v), full.reach.get(int(u), int(v)); got != want {
				t.Fatalf("node %d -> %d: on-demand %v, dense closure %v", u, v, got, want)
			}
		}
	}
}

// TestIncrementalClosureMatchesFullRecompute drives multi-round
// fixpoints (queue-rule chains across loopers force several rounds)
// and asserts the incremental closure is bit-identical to a from-
// scratch recompute over the final edge set, and the on-demand
// conventional model exact against its dense reference.
func TestIncrementalClosureMatchesFullRecompute(t *testing.T) {
	// Chained loopers: a driver sends k events to looper A (rule 1
	// orders them in round 1); each A event sends one event to looper
	// B, whose sends only become ordered once round 1's edges land —
	// rule 1 on B's queue fires in round 2, and so on down the chain.
	const chain = 4
	const k = 3
	b := newTB()
	driver := b.thread(1, "driver")
	loopers := make([]trace.TaskID, chain)
	queues := make([]trace.QueueID, chain)
	next := trace.TaskID(2)
	for i := range loopers {
		loopers[i] = b.thread(next, "L")
		queues[i] = trace.QueueID(i + 1)
		next++
	}
	events := make([][]trace.TaskID, chain)
	for i := range events {
		events[i] = make([]trace.TaskID, k)
		for j := range events[i] {
			events[i][j] = b.event(next, "ev", loopers[i], queues[i])
			next++
		}
	}
	b.add(trace.Entry{Task: driver, Op: trace.OpBegin})
	for _, lo := range loopers {
		b.add(trace.Entry{Task: lo, Op: trace.OpBegin})
	}
	for j := 0; j < k; j++ {
		b.add(trace.Entry{Task: driver, Op: trace.OpSend, Target: events[0][j], Queue: queues[0]})
	}
	b.add(trace.Entry{Task: driver, Op: trace.OpEnd})
	for i := 0; i < chain; i++ {
		for j := 0; j < k; j++ {
			ev := events[i][j]
			b.add(trace.Entry{Task: ev, Op: trace.OpBegin, Queue: queues[i]})
			if i+1 < chain {
				b.add(trace.Entry{Task: ev, Op: trace.OpSend, Target: events[i+1][j], Queue: queues[i+1]})
			}
			b.add(trace.Entry{Task: ev, Op: trace.OpEnd})
		}
	}
	g := b.build(t, Options{})
	if g.rounds < 3 {
		t.Fatalf("chain trace should need several fixpoint rounds, got %d", g.rounds)
	}
	assertClosureExact(t, g)

	ps, err := Scan(b.tr)
	if err != nil {
		t.Fatal(err)
	}
	assertConvExact(t, ps, b.build(t, Options{Conventional: true}))
}

// TestIncrementalClosureOnAppTraces checks the same invariant on the
// realistic app-model traces.
func TestIncrementalClosureOnAppTraces(t *testing.T) {
	for _, name := range []string{"MyTracks", "Browser"} {
		spec, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("no app %q", name)
		}
		col := trace.NewCollector()
		out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Sys.Run(); err != nil {
			t.Fatal(err)
		}
		ps, err := Scan(col.T)
		if err != nil {
			t.Fatal(err)
		}
		g, err := BuildFromScan(ps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertClosureExact(t, g)
		conv, err := BuildFromScan(ps, Options{Conventional: true})
		if err != nil {
			t.Fatal(err)
		}
		assertConvExact(t, ps, conv)
	}
}

// TestBuildFromScanSharedPrescan builds both model variants over one
// Prescan and checks they match independent Build calls.
func TestBuildFromScanSharedPrescan(t *testing.T) {
	spec, _ := apps.ByName("ZXing")
	col := trace.NewCollector()
	out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Sys.Run(); err != nil {
		t.Fatal(err)
	}
	ps, err := Scan(col.T)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Conventional: true}} {
		shared, err := BuildFromScan(ps, opts)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := Build(col.T, opts)
		if err != nil {
			t.Fatal(err)
		}
		if shared.Stats() != solo.Stats() {
			t.Fatalf("opts %+v: shared-prescan stats %+v != solo stats %+v", opts, shared.Stats(), solo.Stats())
		}
		if opts.Conventional {
			// No closure: both answer by searching their adjacency.
			for u := range solo.adj {
				if !slices.Equal(shared.adj[u], solo.adj[u]) {
					t.Fatalf("shared-prescan adjacency of node %d differs from solo build", u)
				}
			}
			continue
		}
		if !slices.Equal(shared.reach.bits, solo.reach.bits) {
			t.Fatal("shared-prescan closure differs from solo build")
		}
	}
}

// TestConventionalConcurrentQueries checks that concurrent readers of
// one on-demand conventional graph get the serial answers: search
// scratch state is per call, never shared through the Graph.
func TestConventionalConcurrentQueries(t *testing.T) {
	tr := synth.Trace(synth.Config{Chain: 3, EventsPer: 6, FreeThreads: 3, Burst: 2, BurstEvents: 8})
	conv, err := Build(tr, Options{Conventional: true})
	if err != nil {
		t.Fatal(err)
	}
	n := len(tr.Entries)
	want := make([]bool, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[i*n+j] = conv.Ordered(i, j)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if conv.Ordered(i, j) != want[i*n+j] {
						t.Errorf("concurrent Ordered(%d, %d) differs from serial answer", i, j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
