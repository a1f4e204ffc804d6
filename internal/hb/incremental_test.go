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

// TestIncrementalClosureMatchesFullRecompute drives multi-round
// fixpoints (queue-rule chains across loopers force several rounds)
// and asserts the semi-naive fixpoint and the conventional model are
// exact against the dense reference, which recomputes a full closure
// every round.
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
	// b.build checks each model against the dense reference.
	g := b.build(t, Options{})
	if g.rounds < 3 {
		t.Fatalf("chain trace should need several fixpoint rounds, got %d", g.rounds)
	}
	b.build(t, Options{Conventional: true})
}

// TestIncrementalClosureOnAppTraces checks the same invariant, and
// CommonAncestor, on the realistic app-model traces.
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
		for _, opts := range []Options{{}, {Conventional: true}} {
			g, err := BuildFromScan(ps, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertExact(t, ps, g)
			assertAncestorsExact(t, ps, g, 2000)
		}
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
		// Both answer by searching their adjacency.
		for u := range solo.adj {
			if !slices.Equal(shared.adj[u], solo.adj[u]) {
				t.Fatalf("opts %+v: shared-prescan adjacency of node %d differs from solo build", opts, u)
			}
		}
	}
}

// TestConventionalConcurrentQueries checks that concurrent readers of
// one conventional graph get the serial answers: search scratch state
// is per call, never shared through the Graph.
func TestConventionalConcurrentQueries(t *testing.T) {
	assertConcurrentQueries(t, Options{Conventional: true})
}

// TestEventDrivenConcurrentQueries is the same check for the
// event-driven model, whose rule pass also runs searches.
func TestEventDrivenConcurrentQueries(t *testing.T) {
	assertConcurrentQueries(t, Options{})
}

// assertConcurrentQueries runs Ordered (through the Graph and through
// a Querier), CommonAncestor and Explain from four goroutines at once
// and compares each answer with the serial one.
func assertConcurrentQueries(t *testing.T, opts Options) {
	tr := synth.Trace(synth.Config{Chain: 3, EventsPer: 6, FreeThreads: 3, Burst: 2, BurstEvents: 8})
	g, err := Build(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := len(tr.Entries)
	ordered := make([]bool, n*n)
	ancestor := make([]int, n*n)
	paths := make([]int, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ordered[i*n+j] = g.Ordered(i, j)
			ancestor[i*n+j] = g.CommonAncestor(i, j)
			paths[i*n+j] = len(g.Explain(i, j))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := g.Querier()
			defer q.Close()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					k := i*n + j
					ti, tj := tr.Entries[i].Task, tr.Entries[j].Task
					if g.Ordered(i, j) != ordered[k] || q.OrderedAt(i, ti, j, tj) != ordered[k] {
						t.Errorf("concurrent Ordered(%d, %d) differs from serial answer", i, j)
						return
					}
					if q.ConcurrentAt(i, ti, j, tj) != g.Concurrent(i, j) {
						t.Errorf("Querier.ConcurrentAt(%d, %d) differs from Graph.Concurrent", i, j)
						return
					}
					if w%2 == 0 && (g.CommonAncestor(i, j) != ancestor[k] || len(g.Explain(i, j)) != paths[k]) {
						t.Errorf("concurrent CommonAncestor/Explain(%d, %d) differ from serial answers", i, j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestFixpointManyRounds builds a chain deeper than any fixed round
// cap: each of its 80 loopers' queue order becomes derivable only
// after the previous looper's round lands.
func TestFixpointManyRounds(t *testing.T) {
	ps, err := Scan(synth.Trace(synth.Config{Chain: 80, EventsPer: 2, FreeThreads: 1}))
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildFromScan(ps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.rounds <= 64 {
		t.Fatalf("chain of 80 loopers converged in %d rounds; want more than 64", g.rounds)
	}
	assertExact(t, ps, g)
}
