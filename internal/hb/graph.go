// Package hb implements the paper's causality model for event-driven
// Android executions (§3): it builds the happens-before graph of a
// trace and answers ordering queries between arbitrary operations.
//
// The model's rules:
//
//   - program order within a task (but NOT between events of the same
//     looper thread, and NOT between unlock → lock);
//   - fork-join and signal-and-wait;
//   - event listener: register(t,l) ≺ perform(e,l);
//   - send: send(t,e,d) ≺ begin(e), sendAtFront(t,e) ≺ begin(e);
//   - external input: external events are conservatively chained;
//   - IPC: rpcCall ≺ rpcHandle, rpcReply ≺ rpcRet, msgSend ≺ msgRecv;
//   - atomicity: if begin(e1) ≺ end(e2) for events of one looper,
//     then end(e1) ≺ begin(e2);
//   - event queue rules 1–4 over ordered sends to the same queue.
//
// The last two rule groups depend on already-derived reachability, so
// Build applies them in rounds until a round derives no new edge. No
// closure is stored: both models answer reachability with one search
// from the source bounded by trace order (see reachable), and the rule
// pass is driven by the same searches. For each looper event e_i it
// searches from begin(e_i) and visits only the reached end(e_j), j > i,
// of that looper; for each send it visits only the reached later sends
// of the same queue. Its cost is proportional to the ordered pairs, not
// to all pairs.
//
// Rounds are semi-naive. A source whose reach set did not change since
// the previous round has the same premises as then, and each of its
// conclusions was either added then or already held, so it cannot
// derive a new edge. Round r > 0 therefore re-runs only the sources
// that reach the source of an edge added in round r−1, found with one
// backward search over the reverse adjacency.
//
// A round's new edges are held in pending and appended to the
// adjacency only when the round ends, and candidates are visited in
// (outer index, inner index) order: looper events by begin order, then
// queue sends by trace order. Every premise and every "already
// ordered" test of a round thus sees the graph as it was when the
// round began — the semantics of recomputing a full closure once per
// round — so the rule edges, the round count and every adjacency list
// (hence every Explain path) are those of that dense fixpoint. The
// fixpoint terminates: a round that continues adds an edge between
// nodes that were unordered, so there are at most n² rounds.
//
// The conventional baseline (Options.Conventional) runs no fixpoint:
// it is the base edges plus a per-looper chain. The fixpoint would add
// nothing to it. Assume each looper runs one event at a time and every
// event sent to a queue runs on one looper (trace.Validator enforces
// both; BuildFromScan re-checks them). Then the chain
// end(e_{k-1}) → begin(e_k), with program order inside each event,
// orders every same-looper pair in begin order. An atomicity or
// queue-rule edge end(a) → begin(b) relates two events of one looper,
// so it is either already reachable (a began first) or points
// backwards in the trace (b began first, and therefore ended before
// a began), and backward edges are dropped (see forward). The
// conventional model therefore gains no rule edges, and its
// reachability is plain reachability over base and chain edges.
//
// Because every rule only ever concludes orderings that actually held
// in the traced execution, the happens-before relation is consistent
// with trace order; the graph is a DAG whose topological order is the
// entry sequence. The graph is built over "reduced nodes" (task
// begins/ends plus cross-edge endpoints); arbitrary operations resolve
// through their nearest reduced anchors.
//
// The single trace scan (node collection plus model-independent base
// edges) is factored into Scan/Prescan so the event-driven and
// conventional variants of one trace share it; BuildFromScan builds a
// graph over a shared Prescan and is safe to call concurrently.
package hb

import (
	"slices"
	"sync"

	"cafa/internal/obs"
	"cafa/internal/trace"
)

// Graph-construction observability (internal/obs). Counts accumulate
// once per build (from the already-maintained per-graph tallies). The
// search counters measure the on-demand reachability searches of both
// models: a build publishes its rule-pass searches once, a Querier its
// searches when it is closed, and each other query method once per
// call.
var (
	cBuilds         = obs.NewCounter("hb_builds_total")
	cBaseEdges      = obs.NewCounter("hb_base_edges_total")
	cRuleEdges      = obs.NewCounter("hb_rule_edges_total")
	cFixpointRounds = obs.NewCounter("hb_fixpoint_rounds_total")
	hRoundsPerBuild = obs.NewHistogram("hb_rounds_per_build")
	cSearches       = obs.NewCounter("hb_searches_total")
	cSearchNodes    = obs.NewCounter("hb_search_nodes_total")
)

// Options configures graph construction.
type Options struct {
	// Conventional builds the thread-based baseline model of §6.3
	// instead: a total order over all events of each looper thread
	// (what a conventional race detector assumes). Lock edges are not
	// added in either mode, matching the paper's comparator. The
	// conventional build runs no fixpoint, and it fails on a trace
	// that breaks the looper discipline (see the package comment).
	Conventional bool
}

// node is one reduced node of the graph.
type node struct {
	seq  int // entry index in the trace
	task trace.TaskID
}

type sendInfo struct {
	node  int32 // reduced node id of the send entry
	event trace.TaskID
	delay int64
	front bool
}

// Graph is the happens-before graph of one trace. It is read-only once
// built, so concurrent queries are safe.
type Graph struct {
	tr    *trace.Trace
	opts  Options
	nodes []node
	// taskNodes holds node ids per task, ascending by seq.
	taskNodes map[trace.TaskID][]int32
	// adj and radj are the forward and reverse adjacency lists. The
	// rule pass keeps radj; the conventional model, which has none,
	// builds it on the first query that needs it (see reverse).
	adj      [][]int32
	radj     [][]int32
	radjOnce sync.Once

	begins map[trace.TaskID]int32 // node id of begin(t)
	ends   map[trace.TaskID]int32 // node id of end(t)
	// queueSends lists sends per queue in trace order.
	queueSends map[trace.QueueID][]sendInfo
	// looperEvents lists events per looper in begin order.
	looperEvents map[trace.TaskID][]trace.TaskID

	rounds    int
	baseEdges int
	ruleEdges int
}

// Build constructs the happens-before graph for a trace.
func Build(tr *trace.Trace, opts Options) (*Graph, error) {
	ps, err := Scan(tr)
	if err != nil {
		return nil, err
	}
	return BuildFromScan(ps, opts)
}

// BuildFromScan constructs a graph over a shared Prescan. Multiple
// calls over one Prescan (e.g. the event-driven and conventional
// models, built concurrently) are safe: the Prescan is read-only.
func BuildFromScan(ps *Prescan, opts Options) (*Graph, error) {
	if opts.Conventional {
		// The conventional answer is exact only under the looper
		// discipline (package comment); refuse a Prescan that breaks
		// it rather than answer wrongly.
		if err := ps.checkLooperDiscipline(); err != nil {
			return nil, err
		}
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
		// Conventional baseline: total event order per looper.
		for _, evs := range g.looperEvents {
			for i := 1; i < len(evs); i++ {
				en, ok1 := g.ends[evs[i-1]]
				b, ok2 := g.begins[evs[i]]
				if ok1 && ok2 && g.forward(en, b) {
					g.adj[en] = append(g.adj[en], b)
					g.baseEdges++
				}
			}
		}
		g.rounds = 1
		g.record()
		return g, nil
	}
	g.reverse()
	r := newRulePass(g)
	for {
		g.rounds++
		if !r.round() {
			break
		}
	}
	r.release()
	g.record()
	return g, nil
}

// record publishes one finished build's tallies to obs.
func (g *Graph) record() {
	cBuilds.Inc()
	cBaseEdges.Add(int64(g.baseEdges))
	cRuleEdges.Add(int64(g.ruleEdges))
	cFixpointRounds.Add(int64(g.rounds))
	hRoundsPerBuild.Observe(int64(g.rounds))
}

// isReducedOp reports whether an operation is a cross-edge endpoint.
func isReducedOp(op trace.Op) bool {
	switch op {
	case trace.OpBegin, trace.OpEnd, trace.OpFork, trace.OpJoin,
		trace.OpWait, trace.OpNotify, trace.OpSend, trace.OpSendAtFront,
		trace.OpRegister, trace.OpPerform,
		trace.OpRPCCall, trace.OpRPCHandle, trace.OpRPCReply, trace.OpRPCRet,
		trace.OpMsgSend, trace.OpMsgRecv:
		return true
	default:
		return false
	}
}

// forward reports whether u → v (u, v are node ids, -1 = none) may be
// an edge. Edges always point forward in trace order; violations
// indicate a malformed trace and are dropped.
func (g *Graph) forward(u, v int32) bool {
	return u >= 0 && v >= 0 && u != v && g.nodes[u].seq < g.nodes[v].seq
}

// addEdge inserts the forward edge u → v into both adjacency lists.
func (g *Graph) addEdge(u, v int32) {
	g.adj[u] = append(g.adj[u], v)
	g.radj[v] = append(g.radj[v], u)
}

// reverse returns the reverse adjacency, building it from adj on the
// first call. Later edges must be added through addEdge.
func (g *Graph) reverse() [][]int32 {
	g.radjOnce.Do(func() {
		// One backing array, each list sized to its in-degree.
		deg := make([]int32, len(g.adj))
		m := 0
		for _, ws := range g.adj {
			for _, w := range ws {
				deg[w]++
			}
			m += len(ws)
		}
		back := make([]int32, 0, m)
		g.radj = make([][]int32, len(g.adj))
		for w, d := range deg {
			g.radj[w] = back[:0:d]
			back = back[d:d]
		}
		for u, ws := range g.adj {
			for _, w := range ws {
				g.radj[w] = append(g.radj[w], int32(u))
			}
		}
	})
	return g.radj
}

// reachable reports node-level reachability (reflexive) with a search
// from u bounded by trace order: edges only point forward and node ids
// ascend in trace order, so a path from u to v visits only ids in
// [u, v].
func (g *Graph) reachable(s *search, u, v int32) bool {
	if u > v {
		return false
	}
	return s.run(g.adj, u, u, v, v)
}

// search is the scratch state of on-demand searches. Its bitmap spans
// every node id but is cleared through the list of nodes the last run
// marked, so a run costs what it visits. Query methods take one from
// searchPool, never from the Graph, so concurrent readers of one graph
// stay safe. It tallies its runs until flush publishes them.
type search struct {
	seen   []uint64 // bit w marks node w
	marked []int32  // nodes marked since the last reset
	stack  []int32
	prev   []int32 // Explain's BFS parent of each marked node

	runs, nodes int64 // tallies not yet published
}

var searchPool = sync.Pool{New: func() any { return new(search) }}

func getSearch() *search { return searchPool.Get().(*search) }

// release publishes s's tallies and returns it to the pool.
func (s *search) release() {
	s.flush()
	searchPool.Put(s)
}

// flush publishes the tallied runs to obs.
func (s *search) flush() {
	if s.runs != 0 {
		cSearches.Add(s.runs)
		cSearchNodes.Add(s.nodes)
		s.runs, s.nodes = 0, 0
	}
}

// reset unmarks every node and sizes the bitmap for n nodes.
func (s *search) reset(n int) {
	if words := (n + 63) / 64; len(s.seen) < words {
		s.seen = make([]uint64, words)
	} else {
		for _, w := range s.marked {
			s.seen[w/64] = 0
		}
	}
	s.marked = s.marked[:0]
}

// run resets s and marks every node reachable from u over adj through
// nodes with ids in [lo, hi], reporting whether stop was marked and
// returning as soon as it is (stop < 0 marks the whole bounded set).
func (s *search) run(adj [][]int32, u, lo, hi, stop int32) bool {
	s.reset(len(adj))
	return s.walk(adj, u, lo, hi, stop)
}

// walk is run without the reset: it adds u's bounded reach to the
// marks already made.
func (s *search) walk(adj [][]int32, u, lo, hi, stop int32) bool {
	s.runs++
	if s.has(u) {
		return u == stop
	}
	s.mark(u)
	if u == stop {
		return true
	}
	s.stack = append(s.stack[:0], u)
	for len(s.stack) > 0 {
		x := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for _, w := range adj[x] {
			if w < lo || w > hi || s.has(w) {
				continue
			}
			s.mark(w)
			if w == stop {
				return true
			}
			s.stack = append(s.stack, w)
		}
	}
	return false
}

func (s *search) mark(w int32) {
	s.seen[w/64] |= 1 << (uint(w) % 64)
	s.marked = append(s.marked, w)
	s.nodes++
}

func (s *search) has(w int32) bool {
	return s.seen[w/64]&(1<<(uint(w)%64)) != 0
}

// looperRule is one looper's events in begin order, as node ids (-1 =
// the event has no such node), for the atomicity rule.
type looperRule struct {
	begins, ends []int32
	last         int32 // highest end node of the looper's events
}

// queueRule is one queue's sends in trace order with their events'
// node ids (-1 = none), for the event queue rules.
type queueRule struct {
	sends        []sendInfo
	begins, ends []int32
}

// slot locates a node in the rule tables: the looper (or queue) index
// and the event (or send) index within it; group < 0 means none.
type slot struct{ group, index int32 }

// rulePass is the state of the derived-rule fixpoint over one graph.
type rulePass struct {
	g       *Graph
	loopers []looperRule
	queues  []queueRule
	// endSlot[n] locates the event n ends; sendSlot[n] the send n is.
	endSlot, sendSlot []slot

	// s searches premises, t the reach of a conclusion's shared end
	// node, u answers one-off tests, and dirty marks the sources to
	// re-run (nil in round 0: all of them). All come from searchPool.
	s, t, u, dirty *search
	cand           []int32
	pending        []edge // this round's new edges, flushed when it ends
}

func newRulePass(g *Graph) *rulePass {
	r := &rulePass{g: g, s: getSearch(), t: getSearch(), u: getSearch()}
	n := len(g.nodes)
	slots := make([]slot, 2*n)
	for k := range slots {
		slots[k] = slot{-1, -1}
	}
	r.endSlot, r.sendSlot = slots[:n], slots[n:]
	r.loopers = make([]looperRule, 0, len(g.looperEvents))
	r.queues = make([]queueRule, 0, len(g.queueSends))
	nodeOf := func(m map[trace.TaskID]int32, t trace.TaskID) int32 {
		if id, ok := m[t]; ok {
			return id
		}
		return -1
	}
	for _, evs := range g.looperEvents {
		l := looperRule{begins: make([]int32, len(evs)), ends: make([]int32, len(evs)), last: -1}
		li := int32(len(r.loopers))
		for i, ev := range evs {
			l.begins[i] = nodeOf(g.begins, ev)
			l.ends[i] = nodeOf(g.ends, ev)
			if e := l.ends[i]; e >= 0 {
				r.endSlot[e] = slot{li, int32(i)}
				l.last = max(l.last, e)
			}
		}
		r.loopers = append(r.loopers, l)
	}
	for _, sends := range g.queueSends {
		q := queueRule{sends: sends, begins: make([]int32, len(sends)), ends: make([]int32, len(sends))}
		qi := int32(len(r.queues))
		for i, si := range sends {
			q.begins[i] = nodeOf(g.begins, si.event)
			q.ends[i] = nodeOf(g.ends, si.event)
			r.sendSlot[si.node] = slot{qi, int32(i)}
		}
		r.queues = append(r.queues, q)
	}
	return r
}

// round applies the atomicity rule and the four event queue rules once
// and reports whether any new edge was added.
func (r *rulePass) round() bool {
	g := r.g
	// Atomicity rule: begin(e_i) ≺ end(e_j) for events of one looper,
	// i before j, gives end(e_i) ≺ begin(e_j).
	for li := range r.loopers {
		l := &r.loopers[li]
		for i := range l.begins {
			bi, ei := l.begins[i], l.ends[i]
			if bi < 0 || ei < 0 || !r.rerun(bi) {
				continue
			}
			r.s.run(g.adj, bi, bi, l.last, -1)
			js := r.reached(r.endSlot, int32(li), int32(i))
			if len(js) == 0 {
				continue
			}
			hi := int32(-1)
			for _, j := range js {
				hi = max(hi, l.begins[j])
			}
			r.from(ei, hi)
			for _, j := range js {
				r.orderFrom(ei, l.begins[j])
			}
		}
	}
	// Event queue rules over ordered sends to the same queue.
	for qi := range r.queues {
		q := &r.queues[qi]
		last := q.sends[len(q.sends)-1].node
		for ai, a := range q.sends {
			if !r.rerun(a.node) {
				continue
			}
			r.s.run(g.adj, a.node, a.node, last, -1)
			bis := r.reached(r.sendSlot, int32(qi), int32(ai))
			if len(bis) == 0 {
				continue
			}
			// Rules 1 and 3 conclude end(a) ≺ begin(b): one search
			// from end(a) answers them all.
			hi := int32(-1)
			for _, bi := range bis {
				if !q.sends[bi].front {
					hi = max(hi, q.begins[bi])
				}
			}
			r.from(q.ends[ai], hi)
			for _, bi := range bis {
				b := q.sends[bi]
				if a.event == b.event {
					continue
				}
				// a's send happens-before b's send.
				switch {
				case !a.front && !b.front:
					// Rule 1: delays must satisfy d1 <= d2.
					if a.delay <= b.delay {
						r.orderFrom(q.ends[ai], q.begins[bi])
					}
				case a.front && !b.front:
					// Rule 3: sendAtFront(e1) ≺ send(e2) ⇒ e1 ≺ e2.
					r.orderFrom(q.ends[ai], q.begins[bi])
				default:
					// Rules 2 and 4 (b is a sendAtFront): additionally
					// need sendAtFront(e2) ≺ begin(e1).
					if be := q.begins[ai]; be >= 0 && g.reachable(r.u, b.node, be) {
						r.order(q.ends[bi], be)
					}
				}
			}
		}
	}
	return r.flush()
}

// rerun reports whether the source must be searched this round: every
// source in round 0, afterwards only those that reach a new edge.
func (r *rulePass) rerun(src int32) bool {
	return r.dirty == nil || r.dirty.has(src)
}

// reached returns, ascending, the inner indexes above i of the nodes
// the last premise search marked that sit in group grp of tab.
func (r *rulePass) reached(tab []slot, grp, i int32) []int32 {
	r.cand = r.cand[:0]
	for _, w := range r.s.marked {
		if sl := tab[w]; sl.group == grp && sl.index > i {
			r.cand = append(r.cand, sl.index)
		}
	}
	slices.Sort(r.cand)
	return r.cand
}

// from searches the reach of en (-1 = none) up to node hi, for
// orderFrom.
func (r *rulePass) from(en, hi int32) {
	if en >= 0 && hi > en {
		r.t.run(r.g.adj, en, en, hi, -1)
	}
}

// orderFrom derives en → b (node ids, -1 = none) unless it is backward
// or already holds at the start of the round. The last from(en, hi)
// call must have covered b (b <= hi).
func (r *rulePass) orderFrom(en, b int32) {
	if r.g.forward(en, b) && !r.t.has(b) {
		r.derive(en, b)
	}
}

// order is orderFrom with a search of its own.
func (r *rulePass) order(en, b int32) {
	if r.g.forward(en, b) && !r.g.reachable(r.u, en, b) {
		r.derive(en, b)
	}
}

// derive holds the new rule edge en → b until the round ends.
func (r *rulePass) derive(en, b int32) {
	r.pending = append(r.pending, edge{en, b})
	r.g.ruleEdges++
}

// flush appends the round's pending edges to the graph, marks the
// sources the next round must re-run, and reports whether there were
// any.
func (r *rulePass) flush() bool {
	if len(r.pending) == 0 {
		return false
	}
	g := r.g
	for _, e := range r.pending {
		g.addEdge(e.u, e.v)
	}
	if r.dirty == nil {
		r.dirty = getSearch()
	}
	r.dirty.reset(len(g.nodes))
	for _, e := range r.pending {
		r.dirty.walk(g.radj, e.u, 0, e.u, -1)
	}
	r.pending = r.pending[:0]
	return true
}

// release publishes the pass's search tallies and returns its
// searches to the pool.
func (r *rulePass) release() {
	for _, s := range []*search{r.s, r.t, r.u, r.dirty} {
		if s != nil {
			s.release()
		}
	}
}

// Stats summarizes graph construction.
type Stats struct {
	Entries   int
	Nodes     int
	BaseEdges int
	RuleEdges int
	Rounds    int
}

// Stats returns construction statistics.
func (g *Graph) Stats() Stats {
	return Stats{
		Entries:   g.tr.Len(),
		Nodes:     len(g.nodes),
		BaseEdges: g.baseEdges,
		RuleEdges: g.ruleEdges,
		Rounds:    g.rounds,
	}
}
