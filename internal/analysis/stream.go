// Streaming mode: the same pipeline advanced one entry at a time.
//
// Batch analysis materializes the trace, then runs three passes over
// it. Streaming analysis turns each pass's scan into a per-event
// consumer — hb.Scanner, lockset.Tracker, detect.Extractor, and the
// structural trace.Validator — and feeds every decoded entry through
// all four before discarding it. What survives an entry's consumption
// is a windowed frontier of compact records:
//
//   - hb: one reduced node + redOp record per reduced operation
//     (begins/ends/sends/...), never the scalar accesses between them;
//   - lockset: a snapshot only at pointer accesses whose set is
//     non-empty (the only entries the detector ever queries);
//   - detect: use/free/alloc/guard records plus the per-task
//     last-read frontier; a read retires as soon as a newer read of
//     the same object supersedes it or a deref promotes it.
//
// Peak memory is therefore O(reduced nodes + accesses-of-interest),
// not O(trace): the dominant cost of long traces — the entry slice
// itself and the per-entry lockset snapshots — is never allocated.
// The happens-before graphs are still built at Finish over the reduced
// nodes, exactly as in batch mode, so results are bit-identical; only
// the entry stream is never retained.
//
// Evidence and the naive baseline need the full entry list (call
// walks, Explain paths); when Options request them the analyzer
// retains decoded entries in the header trace and everything works
// unchanged — the streaming win is then overlap (analyze during
// ingest), not bounded memory.
package analysis

import (
	"fmt"
	"io"

	"cafa/internal/detect"
	"cafa/internal/hb"
	"cafa/internal/lockset"
	"cafa/internal/obs"
	"cafa/internal/provenance"
	"cafa/internal/static"
	"cafa/internal/trace"
)

// Streaming observability (internal/obs): traces/entries consumed via
// the streaming path, and the live frontier window (unpromoted pinned
// reads), sampled periodically and at Finish. The retirement counter
// and stall histogram live in internal/detect with the frontier.
var (
	cStreamTraces  = obs.NewCounter("analysis_stream_traces_total")
	cStreamEntries = obs.NewCounter("analysis_stream_entries_total")
	gStreamWindow  = obs.NewGauge("stream_window_live")
)

// windowSampleEvery is how often (in entries) Consume refreshes the
// stream_window_live gauge.
const windowSampleEvery = 4096

// Consumer is the per-event analysis interface: entries arrive in
// trace order, each at most once, and Finish seals the analysis.
type Consumer interface {
	Consume(e trace.Entry) error
	Finish() (*Result, error)
}

// StreamAnalyzer runs the pipeline over a stream of entries. Create
// one per trace with Pipeline.NewStream, Consume every entry, then
// Finish. It implements Consumer.
type StreamAnalyzer struct {
	p   *Pipeline
	hdr *trace.Trace
	st  *static.Result

	val     *trace.Validator
	scanner *hb.Scanner
	locks   *lockset.Tracker
	ext     *detect.Extractor

	// retain keeps decoded entries in hdr: required by Evidence
	// (provenance walks the trace) and Naive. Without them the entry
	// stream is discarded and memory stays O(window).
	retain bool
	i      int
}

// NewStream returns a StreamAnalyzer over a header trace (task and
// name tables; Entries empty). Options.Evidence and Options.Naive
// force entry retention — the analysis still streams, but memory is
// O(trace) again because provenance needs the materialized entries.
func (p *Pipeline) NewStream(hdr *trace.Trace) *StreamAnalyzer {
	var st *static.Result
	if p.opts.wantStatic() {
		p.staticOnce.Do(func() {
			p.static = static.AnalyzeOpts(p.opts.Program, static.Options{Roots: p.opts.Roots})
		})
		st = p.static
	}
	sources := p.opts.DerefSources
	if st != nil && p.opts.Interproc {
		sources = st.Derefs
	}
	return &StreamAnalyzer{
		p:       p,
		hdr:     hdr,
		st:      st,
		val:     trace.NewValidator(hdr),
		scanner: hb.NewScanner(hdr),
		locks:   lockset.NewTracker(0),
		ext:     detect.NewExtractor(sources, true),
		retain:  p.opts.Evidence || p.opts.Naive,
	}
}

// Retaining reports whether the analyzer keeps decoded entries (see
// NewStream).
func (sa *StreamAnalyzer) Retaining() bool { return sa.retain }

// Entries returns how many entries have been consumed so far.
func (sa *StreamAnalyzer) Entries() int { return sa.i }

// Consume advances every pass by one entry. Entries must arrive in
// trace order; the entry is not retained unless Retaining.
func (sa *StreamAnalyzer) Consume(e trace.Entry) error {
	i := sa.i
	if err := sa.val.Entry(&e); err != nil {
		return err
	}
	if err := sa.scanner.Consume(&e); err != nil {
		return err
	}
	if err := sa.locks.Consume(i, &e); err != nil {
		return err
	}
	sa.ext.Consume(i, &e)
	if sa.retain {
		sa.hdr.Entries = append(sa.hdr.Entries, e)
	}
	sa.i++
	if sa.i%windowSampleEvery == 0 {
		gStreamWindow.Set(int64(sa.ext.Live()))
	}
	return nil
}

// Finish validates trace-level invariants, builds both causality
// models over the scanned frontier, and runs the detector over the
// streamed extraction. The Result is identical to batch Analyze on the
// materialized trace.
func (sa *StreamAnalyzer) Finish() (*Result, error) {
	sp := obs.Start("pipeline.analyze.stream")
	defer sp.End()
	return sa.FinishSpanned(sp)
}

// FinishSpanned is Finish under a caller-owned span (nil is fine);
// the caller Ends sp.
func (sa *StreamAnalyzer) FinishSpanned(sp *obs.Span) (*Result, error) {
	gStreamWindow.Set(int64(sa.ext.Live()))
	if err := sa.val.Finish(); err != nil {
		cTraceErrors.Inc()
		return nil, err
	}
	if sa.hdr.StreamLen != 0 && sa.i != sa.hdr.StreamLen {
		cTraceErrors.Inc()
		return nil, fmt.Errorf("analysis: stream ended after %d of %d declared entries", sa.i, sa.hdr.StreamLen)
	}
	spScan := sp.Child("hb.prescan")
	ps := sa.scanner.Finish()
	spScan.End()

	spC := sp.Child("hb.conventional")
	conv, err := hb.BuildFromScan(ps, hb.Options{Conventional: true})
	spC.End()
	if err != nil {
		cTraceErrors.Inc()
		return nil, err
	}
	spG := sp.Child("hb.graph")
	g, err := hb.BuildFromScan(ps, hb.Options{})
	spG.End()
	if err != nil {
		cTraceErrors.Inc()
		return nil, err
	}
	ls := sa.locks.Sets()
	in := detect.Input{
		Trace:        sa.hdr,
		Graph:        g,
		Conventional: conv,
		Locks:        ls,
		DerefSources: sa.p.opts.DerefSources,
	}
	if sa.st != nil {
		if sa.p.opts.Interproc {
			in.DerefSources = sa.st.Derefs
		}
		if sa.p.opts.StaticGuardPrune {
			in.StaticGuards = sa.st.Guards
		}
		if sa.p.opts.StaticOrderPrune {
			in.StaticOrders = sa.st.Orders.PruneMap()
		}
	}
	var col *provenance.Collector
	if sa.p.opts.Evidence {
		col = provenance.NewCollector(sa.hdr, g, conv, ls, sa.p.opts.EvidenceOptions)
		in.Collector = col
	}
	spDet := sp.Child("detect")
	res, err := detect.DetectExtracted(in, sa.ext, sa.p.opts.Detect)
	spDet.End()
	if err != nil {
		cTraceErrors.Inc()
		return nil, err
	}
	out := &Result{
		Trace:        sa.hdr,
		Races:        res.Races,
		Stats:        res.Stats,
		GraphStats:   g.Stats(),
		ConvStats:    conv.Stats(),
		Graph:        g,
		Conventional: conv,
		Locks:        ls,
		Static:       sa.st,
		Evidence:     col,
		Stacks:       sa.ext.Stacks(),
	}
	if sa.p.opts.Naive {
		spN := sp.Child("detect.naive")
		out.Naive = detect.Naive(g)
		spN.End()
	}
	cStreamTraces.Inc()
	cStreamEntries.Add(int64(sa.i))
	cTracesAnalyzed.Inc()
	sp.SetAttr(obs.Int("races", len(out.Races)))
	return out, nil
}

// AnalyzeStream decodes rd with trace.NewStreamDecoder and runs the
// streaming pipeline over it: decode, validate, and analyze advance
// together per entry, so a long trace is analyzed in O(window) memory
// (unless Options force retention). The result is identical to
// decoding fully and calling Analyze.
func (p *Pipeline) AnalyzeStream(rd io.Reader) (*Result, error) {
	sp := obs.Start("pipeline.analyze.stream")
	defer sp.End()
	return p.AnalyzeStreamSpanned(rd, sp)
}

// AnalyzeStreamSpanned is AnalyzeStream under a caller-owned span;
// the caller Ends sp.
func (p *Pipeline) AnalyzeStreamSpanned(rd io.Reader, sp *obs.Span) (*Result, error) {
	dec, err := trace.NewStreamDecoder(rd)
	if err != nil {
		return nil, err
	}
	sa := p.NewStream(dec.Header())
	spIngest := sp.Child("stream.ingest")
	for {
		e, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			spIngest.End()
			cTraceErrors.Inc()
			return nil, err
		}
		if err := sa.Consume(e); err != nil {
			spIngest.End()
			cTraceErrors.Inc()
			return nil, err
		}
	}
	spIngest.End()
	return sa.FinishSpanned(sp)
}
