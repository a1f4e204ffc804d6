package hb

import (
	"math/rand"
	"slices"
	"testing"

	"cafa/internal/synth"
	"cafa/internal/trace"
)

// bitmat is a dense reachability matrix: one bit row per reduced
// node, all rows in one backing slice. Only the test reference keeps
// one; the graph answers reachability by search.
type bitmat struct {
	words int
	bits  []uint64
}

func newBitmat(n int) *bitmat {
	words := (n + 63) / 64
	return &bitmat{words: words, bits: make([]uint64, n*words)}
}

func (m *bitmat) row(i int) []uint64 {
	return m.bits[i*m.words : (i+1)*m.words]
}

func (m *bitmat) set(i, j int) {
	m.row(i)[j/64] |= 1 << (uint(j) % 64)
}

func (m *bitmat) get(i, j int) bool {
	return m.row(i)[j/64]&(1<<(uint(j)%64)) != 0
}

// orInto ors row src into row dst.
func (m *bitmat) orInto(dst, src int) {
	d := m.row(dst)
	s := m.row(src)
	for k := range d {
		d[k] |= s[k]
	}
}

// dense is the reference the on-demand graph is checked against: the
// same rules applied to a full transitive closure recomputed every
// round, every pair tested every round, each new edge appended at
// once (the closure, not the adjacency, is what a round's tests read).
type dense struct {
	g     *Graph
	reach *bitmat
}

// buildFull builds the dense reference over ps. With
// Options.Conventional it still runs the fixpoint over the looper
// chain, so it also checks that the fixpoint adds nothing there.
func buildFull(ps *Prescan, opts Options) *dense {
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
	g.reverse()
	for _, e := range ps.baseEdges {
		g.addEdge(e.u, e.v)
		g.baseEdges++
	}
	if opts.Conventional {
		for _, evs := range g.looperEvents {
			for i := 1; i < len(evs); i++ {
				en, ok1 := g.ends[evs[i-1]]
				b, ok2 := g.begins[evs[i]]
				if ok1 && ok2 && g.forward(en, b) {
					g.addEdge(en, b)
					g.baseEdges++
				}
			}
		}
	}
	d := &dense{g: g, reach: newBitmat(len(g.nodes))}
	for {
		g.rounds++
		d.closure()
		if !d.applyDerivedRules() {
			break
		}
	}
	return d
}

// closure recomputes the matrix in full. Nodes are in topological
// (trace) order, so one reverse sweep suffices.
func (d *dense) closure() {
	clear(d.reach.bits)
	for i := len(d.g.nodes) - 1; i >= 0; i-- {
		d.reach.set(i, i)
		for _, w := range d.g.adj[i] {
			d.reach.orInto(i, int(w))
		}
	}
}

func (d *dense) reachable(u, v int32) bool { return d.reach.get(int(u), int(v)) }

// order adds end → begin unless the closure already orders them.
func (d *dense) order(en, b int32, added *bool) {
	if en < 0 || b < 0 || d.reachable(en, b) || !d.g.forward(en, b) {
		return
	}
	d.g.addEdge(en, b)
	d.g.ruleEdges++
	*added = true
}

// applyDerivedRules tests every same-looper event pair and every
// same-queue send pair against the closure.
func (d *dense) applyDerivedRules() bool {
	g := d.g
	added := false
	nodeOf := func(m map[trace.TaskID]int32, t trace.TaskID) int32 {
		if id, ok := m[t]; ok {
			return id
		}
		return -1
	}
	for _, evs := range g.looperEvents {
		for i := range evs {
			bi, ei := nodeOf(g.begins, evs[i]), nodeOf(g.ends, evs[i])
			if bi < 0 || ei < 0 {
				continue
			}
			for j := i + 1; j < len(evs); j++ {
				bj, ej := nodeOf(g.begins, evs[j]), nodeOf(g.ends, evs[j])
				if bj >= 0 && ej >= 0 && d.reachable(bi, ej) {
					d.order(ei, bj, &added)
				}
			}
		}
	}
	for _, sends := range g.queueSends {
		for ai, a := range sends {
			for _, b := range sends[ai+1:] {
				if a.event == b.event || !d.reachable(a.node, b.node) {
					continue
				}
				ba, ea := nodeOf(g.begins, a.event), nodeOf(g.ends, a.event)
				bb, eb := nodeOf(g.begins, b.event), nodeOf(g.ends, b.event)
				switch {
				case !a.front && !b.front:
					if a.delay <= b.delay {
						d.order(ea, bb, &added)
					}
				case a.front && !b.front:
					d.order(ea, bb, &added)
				default:
					if ba >= 0 && d.reachable(b.node, ba) {
						d.order(eb, ba, &added)
					}
				}
			}
		}
	}
	return added
}

// commonAncestor is Graph.CommonAncestor answered from the closure:
// the latest node before min(i, j) that precedes both entries.
func (d *dense) commonAncestor(i, j int) int {
	g := d.g
	ti, tj := g.tr.Entries[i].Task, g.tr.Entries[j].Task
	vi, vj := g.anchorBefore(ti, i), g.anchorBefore(tj, j)
	before := func(n int32, t trace.TaskID, idx int, v int32) bool {
		if g.nodes[n].task == t {
			return g.nodes[n].seq < idx
		}
		return v >= 0 && d.reachable(n, v)
	}
	for n := int32(len(g.nodes) - 1); n >= 0; n-- {
		if g.nodes[n].seq < min(i, j) && before(n, ti, i, vi) && before(n, tj, j, vj) {
			return g.nodes[n].seq
		}
	}
	return -1
}

// assertExact checks g against the dense reference over the same
// Prescan: equal stats (rule edges and rounds included), equal
// adjacency lists in the same order (so Explain paths are equal), a
// reverse adjacency that mirrors them, and, for every source, one
// bounded search marking exactly its dense closure row.
func assertExact(t *testing.T, ps *Prescan, g *Graph) {
	t.Helper()
	full := buildFull(ps, g.opts)
	if g.Stats() != full.g.Stats() {
		t.Fatalf("on-demand stats %+v != dense reference stats %+v", g.Stats(), full.g.Stats())
	}
	n := int32(len(g.nodes))
	radj := g.reverse()
	var edges, redges int
	for u := range n {
		if !slices.Equal(g.adj[u], full.g.adj[u]) {
			t.Fatalf("adjacency of node %d: on-demand %v, dense reference %v", u, g.adj[u], full.g.adj[u])
		}
		edges += len(g.adj[u])
		redges += len(radj[u])
		for _, w := range radj[u] {
			if !slices.Contains(g.adj[w], u) {
				t.Fatalf("reverse edge %d <- %d has no forward edge", u, w)
			}
		}
	}
	if edges != redges {
		t.Fatalf("%d forward edges, %d reverse edges", edges, redges)
	}
	var s search
	for u := range n {
		s.run(g.adj, u, u, n-1, -1)
		for v := range n {
			if got, want := v >= u && s.has(v), full.reachable(u, v); got != want {
				t.Fatalf("node %d -> %d: on-demand %v, dense closure %v", u, v, got, want)
			}
		}
	}
}

// assertAncestorsExact checks CommonAncestor against the dense
// reference on random entry pairs.
func assertAncestorsExact(t *testing.T, ps *Prescan, g *Graph, pairs int) {
	t.Helper()
	full := buildFull(ps, g.opts)
	n := len(g.tr.Entries)
	rng := rand.New(rand.NewSource(1))
	for range pairs {
		i, j := rng.Intn(n), rng.Intn(n)
		if got, want := g.CommonAncestor(i, j), full.commonAncestor(i, j); got != want {
			t.Fatalf("CommonAncestor(%d, %d) = %d, dense reference %d", i, j, got, want)
		}
	}
}

// synthShapes is the benchmark's synth shape followed by 50 random
// ones.
func synthShapes() []synth.Config {
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
	return cfgs
}

// TestBuildFullMatchesIncremental checks both models against the dense
// reference on the synthetic workload the benchmarks use and on 50
// random synth shapes: stats, adjacency lists, all-pairs reachability
// and CommonAncestor.
func TestBuildFullMatchesIncremental(t *testing.T) {
	for k, cfg := range synthShapes() {
		ps, err := Scan(synth.Trace(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, {Conventional: true}} {
			g, err := BuildFromScan(ps, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertExact(t, ps, g)
			assertAncestorsExact(t, ps, g, 200)
			// Only the event-driven model iterates; the benchmark shape
			// must exercise a multi-round fixpoint.
			if k == 0 && !opts.Conventional && g.rounds < 3 {
				t.Fatalf("synthetic chain converged in %d rounds; want a multi-round fixpoint", g.rounds)
			}
		}
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

// BenchmarkFixpointClosure compares the on-demand semi-naive fixpoint
// against the dense reference on the same Prescan.
func BenchmarkFixpointClosure(b *testing.B) {
	for _, size := range closureBenchSizes {
		tr := synth.Trace(size.cfg)
		ps, err := Scan(tr)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(size.name+"/ondemand", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildFromScan(ps, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(size.name+"/dense", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildFull(ps, Options{})
			}
		})
	}
}
