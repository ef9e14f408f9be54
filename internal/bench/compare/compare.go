// Package compare is the bench-regression gate: it accumulates the
// machine-readable perf baselines (BENCH_throughput.json,
// BENCH_campaign.json, BENCH_fig7/8.json, BENCH_fleet.json,
// BENCH_decisions.json, BENCH_recovery.json) into an append-only
// BENCH_history.jsonl trajectory, and diffs the newest entry against the
// previous one with per-metric, direction-aware thresholds — by default
// warn past 5% and fail past 10% movement in the bad direction (e.g. a
// throughput drop, or recovery-latency p95 growth). CI runs the diff as
// a gate via cmd/benchgate, so a commit that quietly costs 10% of Fig. 7
// throughput fails its build instead of landing.
package compare

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"resilientos/internal/bench"
)

// Entry is one line of BENCH_history.jsonl: every baseline document a
// commit produced, plus an optional label (commit SHA, tag).
type Entry struct {
	Label      string            `json:"label,omitempty"`
	Throughput *bench.Throughput `json:"throughput,omitempty"`
	Campaign   *bench.Campaign   `json:"campaign,omitempty"`
	Figures    []bench.Figure    `json:"figures,omitempty"`
	Fleet      *bench.Fleet      `json:"fleet,omitempty"`
	Decisions  *bench.Decisions  `json:"decisions,omitempty"`
	Recovery   *bench.Recovery   `json:"recovery,omitempty"`
}

// Empty reports whether the entry carries no documents at all.
func (e Entry) Empty() bool {
	return e.Throughput == nil && e.Campaign == nil && len(e.Figures) == 0 &&
		e.Fleet == nil && e.Decisions == nil && e.Recovery == nil
}

// LoadEntry gathers the baseline documents found in dir
// (BENCH_throughput.json, BENCH_campaign.json, BENCH_fleet.json,
// BENCH_decisions.json, BENCH_recovery.json, BENCH_fig*.json; missing
// files are skipped, malformed ones are errors).
func LoadEntry(dir, label string) (Entry, error) {
	e := Entry{Label: label}
	load := func(path string, v any) (bool, error) {
		b, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(b, v); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		return true, nil
	}
	var tp bench.Throughput
	if ok, err := load(filepath.Join(dir, "BENCH_throughput.json"), &tp); err != nil {
		return e, err
	} else if ok {
		e.Throughput = &tp
	}
	var cp bench.Campaign
	if ok, err := load(filepath.Join(dir, "BENCH_campaign.json"), &cp); err != nil {
		return e, err
	} else if ok {
		e.Campaign = &cp
	}
	var fl bench.Fleet
	if ok, err := load(filepath.Join(dir, "BENCH_fleet.json"), &fl); err != nil {
		return e, err
	} else if ok {
		e.Fleet = &fl
	}
	var dc bench.Decisions
	if ok, err := load(filepath.Join(dir, "BENCH_decisions.json"), &dc); err != nil {
		return e, err
	} else if ok {
		e.Decisions = &dc
	}
	var rv bench.Recovery
	if ok, err := load(filepath.Join(dir, "BENCH_recovery.json"), &rv); err != nil {
		return e, err
	} else if ok {
		e.Recovery = &rv
	}
	figs, err := filepath.Glob(filepath.Join(dir, "BENCH_fig*.json"))
	if err != nil {
		return e, err
	}
	sort.Strings(figs)
	for _, path := range figs {
		var f bench.Figure
		if ok, err := load(path, &f); err != nil {
			return e, err
		} else if ok {
			e.Figures = append(e.Figures, f)
		}
	}
	return e, nil
}

// ReadHistory parses a BENCH_history.jsonl stream (blank lines skipped).
func ReadHistory(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("history line %d: %w", line, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// ReadHistoryFile reads path, returning an empty history when the file
// does not exist yet.
func ReadHistoryFile(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadHistory(f)
}

// AppendHistory appends e as one JSON line to path (created if absent).
func AppendHistory(path string, e Entry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Severity of one finding.
type Severity int

// Severities, in ascending order of badness.
const (
	OK Severity = iota
	Warn
	Fail
)

func (s Severity) String() string {
	switch s {
	case Warn:
		return "WARN"
	case Fail:
		return "FAIL"
	}
	return "ok"
}

// Thresholds are the percent movements (in the bad direction) past which
// a metric warns or fails.
type Thresholds struct {
	WarnPct float64
	FailPct float64
}

// DefaultThresholds: warn past 5%, fail past 10%.
var DefaultThresholds = Thresholds{WarnPct: 5, FailPct: 10}

// Finding is one metric's movement between two history entries.
// DeltaPct is signed with the metric's natural direction (positive =
// increased); RegressionPct is the movement in the bad direction
// (positive = worse, 0 when the metric improved or held).
type Finding struct {
	Metric        string
	Old, New      float64
	HigherBetter  bool
	DeltaPct      float64
	RegressionPct float64
	Severity      Severity
}

// Report is the diff of two history entries.
type Report struct {
	OldLabel, NewLabel string
	Findings           []Finding
	// Missing lists metrics present in the old entry but absent from the
	// new one — a silently dropped benchmark is reported, not ignored.
	Missing []string
}

// Worst returns the report's worst severity.
func (r Report) Worst() Severity {
	w := OK
	for _, f := range r.Findings {
		if f.Severity > w {
			w = f.Severity
		}
	}
	if len(r.Missing) > 0 && w < Warn {
		w = Warn
	}
	return w
}

// metric is one comparable scalar extracted from an entry.
type metric struct {
	name         string
	value        float64
	higherBetter bool
}

// metrics flattens an entry into its gated scalar metrics.
func metrics(e Entry) []metric {
	var out []metric
	add := func(name string, v float64, higher bool) {
		out = append(out, metric{name: name, value: v, higherBetter: higher})
	}
	if t := e.Throughput; t != nil {
		for _, p := range t.Points {
			key := fmt.Sprintf("throughput/%s/interval_%gs", t.Experiment, p.KillIntervalS)
			add(key+"/mbps", p.MBps, true)
			if p.Recovery.Count > 0 {
				add(key+"/recovery_p95_ms", p.Recovery.P95Ms, false)
			}
		}
	}
	if c := e.Campaign; c != nil {
		add("campaign/recovery_rate_pct", c.RecoveryRatePct, true)
		add("campaign/invariant_violations", float64(c.InvariantViolations), false)
	}
	if fl := e.Fleet; fl != nil {
		add("fleet/availability_pct", fl.AvailabilityPct, true)
		add("fleet/recovered_pct", fl.RecoveredPct, true)
		if fl.Latency.Count > 0 {
			add("fleet/request_p50_ms", fl.Latency.P50Ms, false)
			add("fleet/request_p99_ms", fl.Latency.P99Ms, false)
		}
		add("fleet/max_recovery_overlap", float64(fl.MaxRecoveryOverlap), false)
		for _, cl := range fl.Classes {
			key := "fleet/class/" + cl.Class
			if cl.Latency.Count > 0 {
				add(key+"/request_p50_ms", cl.Latency.P50Ms, false)
				add(key+"/request_p95_ms", cl.Latency.P95Ms, false)
				add(key+"/request_p99_ms", cl.Latency.P99Ms, false)
			}
			if cl.SLO != nil {
				add(key+"/slo_attained_pct", cl.SLO.AttainedPct, true)
				add(key+"/slo_window_pct", cl.SLO.WindowPct, true)
			}
		}
	}
	if d := e.Decisions; d != nil {
		// Only the baseline variant is gated; overrides are
		// counterfactuals and may move by design.
		add("decisions/baseline/availability_pct", d.Baseline.AvailabilityPct, true)
		add("decisions/baseline/give_ups", float64(d.Baseline.GaveUp), false)
		if d.Baseline.Recovery.Count > 0 {
			add("decisions/baseline/recovery_p95_ms", d.Baseline.Recovery.P95Ms, false)
		}
	}
	if rv := e.Recovery; rv != nil {
		for _, m := range rv.Mechanisms {
			key := "recovery/" + m.Mechanism
			add(key+"/mean_dip_depth_pct", m.MeanDipDepth, false)
			add(key+"/mean_dip_width_ms", m.MeanDipWidthMs, false)
			add(key+"/recovered_pct", m.RecoveredPct, true)
		}
		// The headline claims: what the mechanisms buy over respawn.
		add("recovery/standby_depth_gain_pct", rv.StandbyDepthGainPct, true)
		add("recovery/micro_width_gain_ms", rv.MicroWidthGainMs, true)
	}
	for _, f := range e.Figures {
		key := "figure/" + f.Name
		add(key+"/baseline_mbps", f.BaselineMBps, true)
		add(key+"/mean_mbps", f.MeanMBps, true)
		add(key+"/recovered_pct", f.RecoveredPct, true)
		if f.Dips > 0 {
			add(key+"/mean_dip_width_ms", f.MeanDipWidthMs, false)
		}
		if f.Recovery.Count > 0 {
			add(key+"/recovery_p95_ms", f.Recovery.P95Ms, false)
		}
	}
	return out
}

// Diff compares the newest entry against the previous one. Metrics only
// present on one side are not scored (but old-side-only ones are listed
// as Missing); a zero old value with a worse nonzero new value fails
// outright (the percent rule cannot grade growth from zero).
func Diff(old, new Entry, th Thresholds) Report {
	if th.WarnPct == 0 && th.FailPct == 0 {
		th = DefaultThresholds
	}
	r := Report{OldLabel: old.Label, NewLabel: new.Label}
	oldM := make(map[string]metric)
	for _, m := range metrics(old) {
		oldM[m.name] = m
	}
	for _, m := range metrics(new) {
		o, ok := oldM[m.name]
		if !ok {
			continue // new benchmark: becomes the baseline next round
		}
		delete(oldM, m.name)
		f := Finding{
			Metric: m.name, Old: o.value, New: m.value,
			HigherBetter: m.higherBetter,
		}
		switch {
		case o.value == m.value:
			// unchanged
		case o.value == 0:
			// Growth from zero: gradable only by direction.
			if !m.higherBetter && m.value > 0 {
				f.RegressionPct = 100
				f.Severity = Fail
			}
		default:
			f.DeltaPct = 100 * (m.value - o.value) / o.value
			if m.higherBetter {
				f.RegressionPct = -f.DeltaPct
			} else {
				f.RegressionPct = f.DeltaPct
			}
			if f.RegressionPct < 0 {
				f.RegressionPct = 0 // improvement
			}
			switch {
			case f.RegressionPct > th.FailPct:
				f.Severity = Fail
			case f.RegressionPct > th.WarnPct:
				f.Severity = Warn
			}
		}
		r.Findings = append(r.Findings, f)
	}
	for name := range oldM {
		r.Missing = append(r.Missing, name)
	}
	sort.Strings(r.Missing)
	sort.Slice(r.Findings, func(i, j int) bool {
		if r.Findings[i].Severity != r.Findings[j].Severity {
			return r.Findings[i].Severity > r.Findings[j].Severity
		}
		return r.Findings[i].Metric < r.Findings[j].Metric
	})
	return r
}

// WriteText renders the report for CI logs: failures first, then warns,
// then the unchanged/improved remainder, then dropped metrics.
func (r Report) WriteText(w io.Writer) {
	label := func(s string) string {
		if s == "" {
			return "(unlabeled)"
		}
		return s
	}
	fmt.Fprintf(w, "bench trajectory: %s -> %s\n", label(r.OldLabel), label(r.NewLabel))
	for _, f := range r.Findings {
		dir := "higher=better"
		if !f.HigherBetter {
			dir = "lower=better"
		}
		fmt.Fprintf(w, "  %-4s %-48s %12.3f -> %-12.3f %+6.1f%% (%s)\n",
			f.Severity, f.Metric, f.Old, f.New, f.DeltaPct, dir)
	}
	for _, m := range r.Missing {
		fmt.Fprintf(w, "  WARN %-48s dropped from newest entry\n", m)
	}
	fmt.Fprintf(w, "worst: %s\n", r.Worst())
}
