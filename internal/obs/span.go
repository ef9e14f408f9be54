package obs

// Causal request tracing. A SpanContext names one span of one trace; the
// kernel carries contexts through IPC rendezvous (stamped at send, adopted
// at receive) so a user-visible operation — a VFS read fanning out through
// MFS to the block driver, a TCP segment flowing app → INET → eth driver —
// becomes a tree of spans in virtual time. Spans a crash interrupts are
// terminated with span.orphan instead of span.end, and the reissued or
// retransmitted successors are linked back with span.link edges
// ("retry-of" to the orphaned predecessor, "recovered-by" to the RS
// recovery-episode span), turning the flat event stream into explainable
// recovery stories.
//
// IDs are allocated from plain recorder counters: the simulation scheduler
// is single-threaded and deterministic, so a fixed seed+workload yields
// identical IDs — and therefore byte-identical exported traces.

import (
	"fmt"
	"sort"

	"resilientos/internal/sim"
)

// SpanContext identifies one span within one trace. The zero value means
// "no context"; it is what propagates when tracing is off.
type SpanContext struct {
	Trace int64
	Span  int64
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// StartSpan opens a new span owned by comp. With a valid parent the span
// joins the parent's trace as its child; otherwise it becomes the root of
// a fresh trace. Returns the zero context (and emits nothing) when the
// recorder is nil or span tracing is disabled — callers can propagate the
// result unconditionally.
func (r *Recorder) StartSpan(comp, name string, parent SpanContext) SpanContext {
	if !r.On(KindSpanBegin) {
		return SpanContext{}
	}
	r.nextSpan++
	sc := SpanContext{Span: r.nextSpan}
	var pa int64
	if parent.Valid() {
		sc.Trace = parent.Trace
		pa = parent.Span
	} else {
		r.nextTrace++
		sc.Trace = r.nextTrace
	}
	r.bus.publish(Event{T: r.bus.now(), Kind: KindSpanBegin, Comp: comp, Aux: name, Trace: sc.Trace, Span: sc.Span, Parent: pa})
	return sc
}

// EndSpan closes a span normally with the given status (0 = ok). No-op
// for the zero context.
func (r *Recorder) EndSpan(comp string, sc SpanContext, status int64) {
	if !sc.Valid() || !r.On(KindSpanEnd) {
		return
	}
	r.bus.publish(Event{T: r.bus.now(), Kind: KindSpanEnd, Comp: comp, V1: status, Trace: sc.Trace, Span: sc.Span})
}

// OrphanSpan terminates a span that can never complete because a crash
// interrupted it; reason conventionally starts with "crash:". No-op for
// the zero context.
func (r *Recorder) OrphanSpan(comp string, sc SpanContext, reason string) {
	if !sc.Valid() || !r.On(KindSpanOrphan) {
		return
	}
	r.bus.publish(Event{T: r.bus.now(), Kind: KindSpanOrphan, Comp: comp, Aux: reason, Trace: sc.Trace, Span: sc.Span})
}

// LinkSpan records a causal edge from span `from` (the successor, e.g. a
// reissued request) to span `to` (the predecessor it retries, or the
// recovery episode that made the retry possible). kind names the edge:
// "retry-of", "recovered-by". No-op unless both contexts are valid.
func (r *Recorder) LinkSpan(comp string, from, to SpanContext, kind string) {
	if !from.Valid() || !to.Valid() || !r.On(KindSpanLink) {
		return
	}
	r.bus.publish(Event{T: r.bus.now(), Kind: KindSpanLink, Comp: comp, Aux: kind, Trace: from.Trace, Span: from.Span, Parent: to.Span})
}

// ---------------------------------------------------------------------
// Span forest reconstruction

// Segments splits a trace at its mark events. Experiments boot a fresh
// recorder per run and emit a mark at each boundary, so span and trace
// IDs are only unique within one segment; consumers that resolve IDs —
// BuildForest, the profiler, the exporter — must process segments
// independently, just as Timeline and the live checker reset at marks.
// Each mark starts a new segment and remains its first event; a trace
// with no marks is a single segment. Subslices alias events.
func Segments(events []Event) [][]Event {
	var segs [][]Event
	start := 0
	for i, e := range events {
		if e.Kind == KindMark && i > start {
			segs = append(segs, events[start:i])
			start = i
		}
	}
	if start < len(events) || len(segs) == 0 {
		segs = append(segs, events[start:])
	}
	return segs
}

// TraceSpan is one reconstructed span of a trace's tree.
type TraceSpan struct {
	ID     int64
	Trace  int64
	Parent int64 // parent span ID; 0 = trace root
	Comp   string
	Name   string
	Start  sim.Time
	End    sim.Time // terminal time; == Start for unterminated spans
	Status int64    // span.end status

	Closed   bool // saw span.end
	Orphaned bool // saw span.orphan
	Reason   string

	Children []*TraceSpan // in begin order
	Links    []Link       // outgoing causal edges (this span is the successor)
}

// Terminated reports whether the span got its terminal event.
func (s *TraceSpan) Terminated() bool { return s.Closed || s.Orphaned }

// Duration is the span's virtual-time extent (0 when unterminated).
func (s *TraceSpan) Duration() sim.Time { return s.End - s.Start }

// Link is a causal edge recorded by span.link.
type Link struct {
	Kind string
	From int64 // successor span ID
	To   int64 // predecessor span ID
}

// Forest is the reconstructed span forest of a trace.
type Forest struct {
	Roots []*TraceSpan // spans without a resolvable parent, in begin order
	ByID  map[int64]*TraceSpan
	Links []Link

	// Problems collects well-formedness violations found while building:
	// duplicate begins, terminals without a begin, double terminals,
	// parents that begin after their children. Empty for a healthy trace.
	Problems []string
}

// BuildForest reconstructs the span forest from a trace's events. Events
// must be in emission order (as every sink preserves). Non-span events
// are ignored. The builder is total: malformed inputs produce Problems
// entries, never panics, so it doubles as the well-formedness check used
// by the invariant tests.
func BuildForest(events []Event) *Forest {
	f := &Forest{ByID: make(map[int64]*TraceSpan)}
	for _, e := range events {
		switch e.Kind {
		case KindSpanBegin:
			if prev, dup := f.ByID[e.Span]; dup {
				f.Problems = append(f.Problems,
					fmt.Sprintf("span %d (%s %q): duplicate begin at t=%d (first t=%d)",
						e.Span, e.Comp, e.Aux, e.T, prev.Start))
				continue
			}
			s := &TraceSpan{
				ID: e.Span, Trace: e.Trace, Parent: e.Parent,
				Comp: e.Comp, Name: e.Aux, Start: e.T, End: e.T,
			}
			f.ByID[e.Span] = s
			if p := f.ByID[e.Parent]; e.Parent != 0 && p != nil {
				if p.Trace != s.Trace {
					f.Problems = append(f.Problems,
						fmt.Sprintf("span %d: trace %d but parent %d is in trace %d",
							s.ID, s.Trace, p.ID, p.Trace))
				}
				if p.Start > s.Start {
					f.Problems = append(f.Problems,
						fmt.Sprintf("span %d begins at t=%d before its parent %d (t=%d)",
							s.ID, s.Start, p.ID, p.Start))
				}
				p.Children = append(p.Children, s)
			} else {
				if e.Parent != 0 {
					f.Problems = append(f.Problems,
						fmt.Sprintf("span %d: parent %d never began", s.ID, e.Parent))
				}
				f.Roots = append(f.Roots, s)
			}
		case KindSpanEnd, KindSpanOrphan:
			s := f.ByID[e.Span]
			if s == nil {
				f.Problems = append(f.Problems,
					fmt.Sprintf("span %d: terminal %v without a begin", e.Span, e.Kind))
				continue
			}
			if s.Terminated() {
				f.Problems = append(f.Problems,
					fmt.Sprintf("span %d: second terminal %v at t=%d", e.Span, e.Kind, e.T))
				continue
			}
			s.End = e.T
			if e.Kind == KindSpanEnd {
				s.Closed = true
				s.Status = e.V1
			} else {
				s.Orphaned = true
				s.Reason = e.Aux
			}
		case KindSpanLink:
			l := Link{Kind: e.Aux, From: e.Span, To: e.Parent}
			f.Links = append(f.Links, l)
			if s := f.ByID[e.Span]; s != nil {
				s.Links = append(s.Links, l)
			}
		}
	}
	return f
}

// Open returns the spans that never got a terminal event, in ID order.
func (f *Forest) Open() []*TraceSpan {
	var out []*TraceSpan
	for _, s := range f.ByID {
		if !s.Terminated() {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Check runs the structural well-formedness audit the property tests
// assert on: build-time Problems, plus per-trace single-root and
// ancestry checks. Child IDs always exceed parent IDs (the allocator is
// monotonic), which Check verifies — it is what rules out cycles.
func (f *Forest) Check() []string {
	problems := append([]string(nil), f.Problems...)
	rootByTrace := make(map[int64]int64) // trace -> first declared-root span
	for _, s := range orderedSpans(f) {
		if s.Parent == 0 {
			if first, ok := rootByTrace[s.Trace]; ok {
				problems = append(problems,
					fmt.Sprintf("trace %d: second root span %d (first %d)", s.Trace, s.ID, first))
			} else {
				rootByTrace[s.Trace] = s.ID
			}
		} else if s.Parent >= s.ID {
			problems = append(problems,
				fmt.Sprintf("span %d: parent %d does not precede it", s.ID, s.Parent))
		}
	}
	return problems
}

func orderedSpans(f *Forest) []*TraceSpan {
	out := make([]*TraceSpan, 0, len(f.ByID))
	for _, s := range f.ByID {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
