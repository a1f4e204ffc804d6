package main

import (
	"encoding/json"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, kept in memory until the run
// ends. Parent is the enclosing span's ID (0 for a root); Key names the
// trace or job the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the /gc/heap/allocs:bytes delta across the call, set
	// only for serial layer calls (concurrent spans would mix).
	Alloc uint64 `json:"alloc_bytes,omitempty"`
}

// recorder collects spans; it is safe for concurrent use.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name, key string, parent int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Key: key, Start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// layer times one serial call into a layer under parent: a GC first, so
// garbage from earlier calls is not collected on this call's clock,
// then the span with the call's heap allocation.
func (r *recorder) layer(parent int, key, name string, fn func()) {
	runtime.GC()
	before := heapAllocs()
	id := r.begin(name, key, parent)
	fn()
	r.end(id)
	alloc := heapAllocs() - before
	r.mu.Lock()
	r.spans[id-1].Alloc = alloc
	r.mu.Unlock()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs reads the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// layerTotals is the per-name sum of self time and allocation.
type layerTotals struct {
	self  time.Duration
	alloc uint64
	n     int
}

// totals sums self time per span name. A span's self time is its
// duration minus the part of it that its child spans cover.
func (r *recorder) totals() map[string]*layerTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTotals)
	for _, s := range r.spans {
		t := out[s.Name]
		if t == nil {
			t = &layerTotals{}
			out[s.Name] = t
		}
		t.self += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
		t.alloc += s.Alloc
		t.n++
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union
// of the children's intervals covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// write emits every span as JSON.
func (r *recorder) write(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return json.NewEncoder(w).Encode(r.spans)
}
