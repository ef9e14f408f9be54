package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"resilientos/internal/perf"
	"resilientos/internal/sim"
)

// Stream is the event bus behind both the trace recorder (Recorder) and
// the recovery-decision recorder (decision.Recorder): it stamps events
// with virtual time, filters them by kind, and fans them out to its sinks
// in emission order. A nil *Stream is valid — every method is a no-op —
// so instrumented code pays a single nil check when recording is off.
type Stream[E any, K ~uint8] struct {
	clock func() sim.Time
	sinks []SinkOf[E]
	mask  uint64 // bit i set = kind i enabled
	kind  func(E) K
	stamp func(E, sim.Time) E

	region perf.Region    // where emits are attributed
	perf   *perf.Profiler // wall-clock cost attribution (nil = off)
	nemit  uint64         // events emitted past the mask (deterministic)
}

// NewStream creates a stream with every kind enabled whose emits are
// attributed to the given profiler region. kind reads an event's kind;
// stamp returns the event with its timestamp set.
func NewStream[E any, K ~uint8](region perf.Region, kind func(E) K, stamp func(E, sim.Time) E, sinks ...SinkOf[E]) *Stream[E, K] {
	return &Stream[E, K]{sinks: sinks, mask: ^uint64(0), kind: kind, stamp: stamp, region: region}
}

// SetClock installs the virtual-time source (the simulation environment's
// Now). Events emitted before a clock is set keep their pre-filled
// timestamp (zero by default).
func (s *Stream[E, K]) SetClock(fn func() sim.Time) {
	if s != nil {
		s.clock = fn
	}
}

// AddSink attaches another sink.
func (s *Stream[E, K]) AddSink(sink SinkOf[E]) {
	if s != nil && sink != nil {
		s.sinks = append(s.sinks, sink)
	}
}

// Disable turns the given kinds off; their emits become no-ops and On
// reports false (instrumentation uses On to skip argument work).
func (s *Stream[E, K]) Disable(kinds ...K) {
	if s != nil {
		for _, k := range kinds {
			s.mask &^= 1 << uint(k)
		}
	}
}

// Enable turns kinds (back) on.
func (s *Stream[E, K]) Enable(kinds ...K) {
	if s != nil {
		for _, k := range kinds {
			s.mask |= 1 << uint(k)
		}
	}
}

// On reports whether events of kind k are recorded. Nil-safe; hot paths
// call this before computing expensive event arguments.
func (s *Stream[E, K]) On(k K) bool {
	return s != nil && s.mask&(1<<uint(k)) != 0
}

// SetPerf installs the wall-clock profiler: every event's sink fan-out
// runs inside the stream's region, so recording's own cost shows up in
// perfbench's per-layer breakdown (obs_self_ms, decision_self_ms).
func (s *Stream[E, K]) SetPerf(p *perf.Profiler) {
	if s != nil {
		s.perf = p
	}
}

// Emitted reports how many events passed the kind mask and reached the
// sinks — the stream's deterministic work counter. Nil-safe.
func (s *Stream[E, K]) Emitted() uint64 {
	if s == nil {
		return 0
	}
	return s.nemit
}

// Emit stamps e with the current virtual time and publishes it to every
// sink, unless its kind is disabled. Nil-safe.
func (s *Stream[E, K]) Emit(e E) {
	if s != nil && s.On(s.kind(e)) {
		if s.clock != nil {
			e = s.stamp(e, s.clock())
		}
		s.publish(e)
	}
}

// now is the virtual time to stamp an event built in place with (0
// before a clock is set).
func (s *Stream[E, K]) now() sim.Time {
	if s.clock == nil {
		return 0
	}
	return s.clock()
}

// publish fans out one stamped event that already passed the mask.
func (s *Stream[E, K]) publish(e E) {
	s.nemit++
	s.perf.Begin(s.region)
	for _, sink := range s.sinks {
		sink.Emit(e)
	}
	s.perf.End(s.region)
}

// SinkOf receives every event a stream emits. Sinks run synchronously in
// scheduler order, so anything they do must be deterministic.
type SinkOf[E any] interface {
	Emit(E)
}

// SliceSinkOf appends every event to an unbounded slice (experiments use
// it to post-process a whole run's events).
type SliceSinkOf[E any] struct {
	events []E
}

// Emit implements SinkOf.
func (s *SliceSinkOf[E]) Emit(e E) { s.events = append(s.events, e) }

// Events returns the recorded events in emission order (not a copy).
func (s *SliceSinkOf[E]) Events() []E { return s.events }

// ReadJSONL is the strict line reader behind the trace and decision-log
// parsers: every non-blank line (at most 1 MiB) must hold one JSON object
// with no fields beyond R's, which conv turns into an event. Errors are
// prefixed with what and the line number; bad input never panics.
func ReadJSONL[R, E any](r io.Reader, what string, conv func(R) (E, error)) ([]E, error) {
	var out []E
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var rec R
		err := dec.Decode(&rec)
		if err == nil && dec.More() {
			err = errors.New("trailing data after record")
		}
		var e E
		if err == nil {
			e, err = conv(rec)
		}
		if err != nil {
			return nil, fmt.Errorf("%s line %d: %v", what, line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
