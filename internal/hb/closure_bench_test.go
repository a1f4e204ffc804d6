package hb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cafa/internal/synth"
)

// buildFull replicates the pre-incremental fixpoint: recompute the
// entire transitive closure on every round. It is the benchmark
// baseline the incremental closure is measured against, and the dense
// reference the on-demand conventional model is checked against: with
// Options.Conventional it still builds the closure and runs the
// fixpoint over the looper chain.
func buildFull(ps *Prescan, opts Options) (*Graph, error) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 64
	}
	g := &Graph{
		tr:           ps.tr,
		opts:         opts,
		nodes:        ps.nodes,
		taskNodes:    ps.taskNodes,
		begins:       ps.begins,
		ends:         ps.ends,
		queueSends:   ps.queueSends,
		looperEvents: ps.looperEvents,
	}
	g.adj = make([][]int32, len(g.nodes))
	for _, e := range ps.baseEdges {
		g.adj[e.u] = append(g.adj[e.u], e.v)
		g.baseEdges++
	}
	if opts.Conventional {
		for _, evs := range g.looperEvents {
			for i := 1; i < len(evs); i++ {
				en, ok1 := g.ends[evs[i-1]]
				b, ok2 := g.begins[evs[i]]
				if ok1 && ok2 && g.addEdge(en, b) {
					g.baseEdges++
				}
			}
		}
	}
	g.reach = newBitmat(len(g.nodes))
	for round := 0; ; round++ {
		if round >= opts.MaxRounds {
			return nil, fmt.Errorf("hb: fixpoint did not converge in %d rounds", opts.MaxRounds)
		}
		g.rounds = round + 1
		g.closure()
		g.pending = g.pending[:0]
		if !g.applyDerivedRules() {
			break
		}
	}
	return g, nil
}

// TestBuildFullMatchesIncremental keeps the benchmark baseline honest:
// the incremental fixpoint must produce the stats and closure bits of
// the full-recompute one, and the on-demand conventional model must
// answer exactly as buildFull's dense closure does. It runs on the
// synthetic workload the benchmarks use and on 50 random synth shapes.
func TestBuildFullMatchesIncremental(t *testing.T) {
	cfgs := []synth.Config{{Chain: 4, EventsPer: 8, FreeThreads: 4}}
	rng := rand.New(rand.NewSource(1))
	for range 50 {
		cfgs = append(cfgs, synth.Config{
			Chain:       1 + rng.Intn(4),
			EventsPer:   1 + rng.Intn(8),
			FreeThreads: rng.Intn(5),
			Burst:       rng.Intn(4),
			BurstEvents: rng.Intn(12),
		})
	}
	for k, cfg := range cfgs {
		ps, err := Scan(synth.Trace(cfg))
		if err != nil {
			t.Fatal(err)
		}
		inc, err := BuildFromScan(ps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		full, err := buildFull(ps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if inc.Stats() != full.Stats() {
			t.Fatalf("%+v: stats diverge: incremental %+v, full %+v", cfg, inc.Stats(), full.Stats())
		}
		if !slices.Equal(inc.reach.bits, full.reach.bits) {
			t.Fatalf("%+v: closure bits diverge", cfg)
		}
		// Only the event-driven model iterates; the benchmark shape
		// must exercise a multi-round fixpoint.
		if k == 0 && inc.rounds < 3 {
			t.Fatalf("synthetic chain converged in %d rounds; want a multi-round fixpoint", inc.rounds)
		}
		conv, err := BuildFromScan(ps, Options{Conventional: true})
		if err != nil {
			t.Fatal(err)
		}
		assertConvExact(t, ps, conv)
	}
}

// closureBenchSizes spans a small app-like trace up to a large
// chained fan-out where round-over-round recompute dominates.
var closureBenchSizes = []struct {
	name string
	cfg  synth.Config
}{
	{"small", synth.Config{Chain: 2, EventsPer: 4, FreeThreads: 2}},
	{"medium", synth.Config{Chain: 4, EventsPer: 8, FreeThreads: 8, Burst: 4, BurstEvents: 24}},
	{"large", synth.Config{Chain: 8, EventsPer: 4, FreeThreads: 16, Burst: 8, BurstEvents: 48}},
}

// BenchmarkFixpointClosure compares the incremental fixpoint against
// the full-recompute baseline on the same Prescan. The incremental
// variant must be no slower on small traces and faster on large ones.
func BenchmarkFixpointClosure(b *testing.B) {
	for _, size := range closureBenchSizes {
		tr := synth.Trace(size.cfg)
		ps, err := Scan(tr)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(size.name+"/incremental", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildFromScan(ps, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(size.name+"/full", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := buildFull(ps, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
