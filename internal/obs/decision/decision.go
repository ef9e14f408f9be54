// Package decision is the recovery-decision trace: every choice the
// reincarnation server makes — declaring a driver stuck, escalating
// SIGTERM to SIGKILL, picking direct restart vs. a policy script,
// spending restart budget, giving up — becomes one structured Event,
// linked by trace ID to the recover:<label> episode spans of package
// obs. Policy-script execution is traced at step granularity (each
// command with its argv, exit status, and variable state), so a
// script-driven recovery leaves a readable "why" trail.
//
// Like obs, everything is deterministic and nil-safe: a nil *Recorder
// is valid and free, timestamps are virtual time, and the JSONL
// encoding has a fixed field order so same-seed runs produce
// byte-identical decision logs (usable as golden files and as the
// replay substrate of cmd/whatif).
package decision

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"resilientos/internal/obs"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
)

// Kind is the type tag of a decision event.
type Kind uint8

// The decision taxonomy. Kinds are stable: their String values are the
// on-disk JSONL identifiers.
const (
	// KindMark is an annotation (run/cell boundaries). Offline verifiers
	// reset their per-service state at a mark, so independent runs can
	// share one decision log.
	KindMark Kind = iota + 1
	// KindTrigger is an RS-initiated choice made *before* a defect
	// materializes: declaring a heartbeat-silent driver stuck, killing on
	// a server complaint, granting an update its termination grace, or
	// escalating SIGTERM to SIGKILL. Triggers stand outside recovery
	// episodes (the kill they cause opens one).
	KindTrigger
	// KindDetect is a defect being attributed and a recovery episode
	// opening (Defect = class, Failures/Budget = consecutive-failure
	// count and restarts remaining, Detail = heartbeat history window).
	KindDetect
	// KindAction is the chosen recovery action for an open episode:
	// "restart-direct", "policy-run" (Detail = script argv), "give-up".
	KindAction
	// KindPolicyStep is one executed policy-script command (Action =
	// command name, Detail = expanded argv plus variable state, Status =
	// exit status, Delay = parsed sleep duration for the sleep builtin).
	// The synthetic final step "exit" carries the script's return code.
	KindPolicyStep
	// KindOutcome is the terminal decision of an episode: "recovered"
	// (Status 0) or "gave-up" (Status 1), with Latency = virtual time
	// from detection to terminal.
	KindOutcome

	kindMax
)

var kindNames = [...]string{
	KindMark:       "mark",
	KindTrigger:    "trigger",
	KindDetect:     "detect",
	KindAction:     "action",
	KindPolicyStep: "policy",
	KindOutcome:    "outcome",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a JSONL kind identifier; ok is false for unknown.
func ParseKind(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name != "" && name == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Kinds returns every defined kind, in numeric order.
func Kinds() []Kind {
	out := make([]Kind, 0, int(kindMax)-1)
	for k := Kind(1); k < kindMax; k++ {
		out = append(out, k)
	}
	return out
}

// DefectName names a defect class (the numeric values of
// core.Defect, which are also the $2 argument of policy scripts).
// Unknown classes render as "class(N)".
func DefectName(class int) string {
	switch class {
	case 0:
		return "-"
	case 1:
		return "exit"
	case 2:
		return "exception"
	case 3:
		return "killed"
	case 4:
		return "heartbeat"
	case 5:
		return "complaint"
	case 6:
		return "update"
	}
	return fmt.Sprintf("class(%d)", class)
}

// Event is one recovery decision. T is virtual time; Service is the
// stable component label the decision is about. Defect, Failures and
// Budget snapshot the RS state the decision was computed from (Budget
// is restarts remaining before give-up, -1 = unlimited). Action names
// the choice; Detail carries kind-specific context (heartbeat window,
// script argv, variable state). Delay is a computed wait (termination
// grace, policy backoff), Status an exit/outcome status, Latency the
// detect-to-terminal recovery latency on outcomes. Trace/Span link the
// event to its obs recovery-episode span (zero when spans are off).
type Event struct {
	T        sim.Time
	Kind     Kind
	Service  string
	Defect   int
	Failures int
	Budget   int
	Action   string
	Detail   string
	Delay    sim.Time
	Status   int64
	Latency  sim.Time

	Trace int64
	Span  int64
}

// Recorder is the decision bus: obs's shared Stream core over decision
// events, profiled under perf.RegionDecision. A nil *Recorder is valid,
// so the RS with decision tracing off pays one nil check per decision.
type Recorder = obs.Stream[Event, Kind]

// Sink receives every event the recorder emits.
type Sink = obs.SinkOf[Event]

// SliceSink appends every event to an unbounded slice.
type SliceSink = obs.SliceSinkOf[Event]

// NewRecorder creates a recorder with all kinds enabled.
func NewRecorder(sinks ...Sink) *Recorder {
	return obs.NewStream(perf.RegionDecision,
		func(e Event) Kind { return e.Kind },
		func(e Event, t sim.Time) Event { e.T = t; return e },
		sinks...)
}

// AppendJSONL appends e's canonical JSONL encoding (including the
// trailing newline) to dst. Field order is fixed — t, kind, svc,
// defect, failures, budget, action, detail, delay, status, latency,
// then tr and sp only when the event carries span linkage — so
// same-seed runs produce byte-identical logs.
func AppendJSONL(dst []byte, e Event) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, int64(e.T), 10)
	dst = append(dst, `,"kind":`...)
	dst = strconv.AppendQuote(dst, e.Kind.String())
	dst = append(dst, `,"svc":`...)
	dst = strconv.AppendQuote(dst, e.Service)
	dst = append(dst, `,"defect":`...)
	dst = strconv.AppendInt(dst, int64(e.Defect), 10)
	dst = append(dst, `,"failures":`...)
	dst = strconv.AppendInt(dst, int64(e.Failures), 10)
	dst = append(dst, `,"budget":`...)
	dst = strconv.AppendInt(dst, int64(e.Budget), 10)
	dst = append(dst, `,"action":`...)
	dst = strconv.AppendQuote(dst, e.Action)
	dst = append(dst, `,"detail":`...)
	dst = strconv.AppendQuote(dst, e.Detail)
	dst = append(dst, `,"delay":`...)
	dst = strconv.AppendInt(dst, int64(e.Delay), 10)
	dst = append(dst, `,"status":`...)
	dst = strconv.AppendInt(dst, e.Status, 10)
	dst = append(dst, `,"latency":`...)
	dst = strconv.AppendInt(dst, int64(e.Latency), 10)
	if e.Trace != 0 || e.Span != 0 {
		dst = append(dst, `,"tr":`...)
		dst = strconv.AppendInt(dst, e.Trace, 10)
		dst = append(dst, `,"sp":`...)
		dst = strconv.AppendInt(dst, e.Span, 10)
	}
	dst = append(dst, '}', '\n')
	return dst
}

// Encode renders events as a canonical JSONL document.
func Encode(events []Event) []byte {
	var dst []byte
	for _, e := range events {
		dst = AppendJSONL(dst, e)
	}
	return dst
}

// jsonlRecord mirrors the canonical encoding for parsing.
type jsonlRecord struct {
	T        int64  `json:"t"`
	Kind     string `json:"kind"`
	Svc      string `json:"svc"`
	Defect   int    `json:"defect"`
	Failures int    `json:"failures"`
	Budget   int    `json:"budget"`
	Action   string `json:"action"`
	Detail   string `json:"detail"`
	Delay    int64  `json:"delay"`
	Status   int64  `json:"status"`
	Latency  int64  `json:"latency"`
	Tr       int64  `json:"tr"`
	Sp       int64  `json:"sp"`
}

// ParseJSONL reads a decision log back into events. The parser is
// strict (see obs.ReadJSONL) — unknown fields, unknown kinds, and
// malformed lines are errors, never panics — and re-encoding its output
// reproduces a canonical log byte-for-byte (the round-trip property the
// fuzz target holds). Blank lines are skipped.
func ParseJSONL(r io.Reader) ([]Event, error) {
	return obs.ReadJSONL(r, "decision: log", func(rec jsonlRecord) (Event, error) {
		k, ok := ParseKind(rec.Kind)
		if !ok {
			return Event{}, fmt.Errorf("unknown kind %q", rec.Kind)
		}
		return Event{
			T: sim.Time(rec.T), Kind: k, Service: rec.Svc,
			Defect: rec.Defect, Failures: rec.Failures, Budget: rec.Budget,
			Action: rec.Action, Detail: rec.Detail,
			Delay: sim.Time(rec.Delay), Status: rec.Status, Latency: sim.Time(rec.Latency),
			Trace: rec.Tr, Span: rec.Sp,
		}, nil
	})
}

// Episodes is the recovery-episode state machine behind both decision-log
// verifiers, Check (offline) and internal/check's decision invariant
// (live): a detect opens an episode for its service, one outcome closes
// it, actions only occur inside one, and policy steps only occur inside a
// policy run opened by a "policy-run" action and closed by its "exit"
// step. Triggers stand outside episodes by design; marks reset all state
// (independent runs sharing one log). The zero value is ready to use.
type Episodes struct {
	Open      map[string]sim.Time // service -> detect time of its open episode
	PolicyRun map[string]sim.Time // service -> start time of its open policy run
}

// Step advances the machine by one event and reports whether it was
// legal: an action or outcome with no open episode, a policy step with no
// open policy run, and an unknown kind are not. Illegal events still
// update the state (an orphan "policy-run" action opens a policy run).
func (m *Episodes) Step(e Event) bool {
	if m.Open == nil || e.Kind == KindMark {
		m.Open = map[string]sim.Time{}
		m.PolicyRun = map[string]sim.Time{}
	}
	_, open := m.Open[e.Service]
	_, running := m.PolicyRun[e.Service]
	switch e.Kind {
	case KindMark, KindTrigger:
		return true
	case KindDetect:
		m.Open[e.Service] = e.T
		return true
	case KindAction:
		if e.Action == "policy-run" {
			m.PolicyRun[e.Service] = e.T
		}
		return open
	case KindPolicyStep:
		if e.Action == "exit" {
			delete(m.PolicyRun, e.Service)
		}
		return running
	case KindOutcome:
		delete(m.Open, e.Service)
		return open
	}
	return false
}

// Check verifies a decision log's well-formedness offline by driving
// Episodes over it, the same machine the live internal/check invariant
// runs; every episode or policy run still open at the end is a problem
// too. Returns a description of every problem found (nil = well-formed).
func Check(events []Event) []string {
	var problems []string
	var m Episodes
	for i, e := range events {
		if m.Step(e) {
			continue
		}
		p := fmt.Sprintf("unknown kind %d", int(e.Kind))
		switch e.Kind {
		case KindAction:
			p = fmt.Sprintf("action %q for %s outside an open episode", e.Action, e.Service)
		case KindPolicyStep:
			p = fmt.Sprintf("policy step %q for %s outside a policy run", e.Action, e.Service)
		case KindOutcome:
			p = fmt.Sprintf("terminal decision %q for %s without an open episode", e.Action, e.Service)
		}
		problems = append(problems, fmt.Sprintf("event %d at %v: %s", i, e.T, p))
	}
	// Map-derived tail problems get a sorted, deterministic order.
	var tail []string
	for svc, t := range m.Open {
		tail = append(tail, fmt.Sprintf(
			"episode for %s detected at %v has no terminal decision", svc, t))
	}
	for svc, t := range m.PolicyRun {
		tail = append(tail, fmt.Sprintf(
			"policy run for %s started at %v never exited", svc, t))
	}
	sort.Strings(tail)
	return append(problems, tail...)
}
