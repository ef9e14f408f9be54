package compare

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientos/internal/bench"
)

// baseEntry builds a representative history entry with every document
// kind the gate trends.
func baseEntry(label string) Entry {
	return Entry{
		Label: label,
		Throughput: &bench.Throughput{
			Schema: bench.SchemaThroughput, Experiment: "fig7", Seed: 11,
			Points: []bench.ThroughputPoint{
				{KillIntervalS: 0, MBps: 10.8, OK: true},
				{KillIntervalS: 2, MBps: 9.5, OK: true,
					Recovery: bench.LatencyMs{Count: 3, P95Ms: 120}},
			},
		},
		Campaign: &bench.Campaign{
			Schema: bench.SchemaCampaign, RecoveryRatePct: 99.9,
		},
		Figures: []bench.Figure{{
			Schema: bench.SchemaFigure, Name: "fig7", Seed: 11, OK: true,
			BaselineMBps: 11.3, MeanMBps: 10.2, RecoveredPct: 100,
			Dips: 3, MeanDipWidthMs: 1000,
			Recovery: bench.LatencyMs{Count: 3, P95Ms: 120},
		}},
		Fleet: &bench.Fleet{
			Schema: bench.SchemaFleet, Nodes: 4, Seed: 11,
			Policy: "failure-aware", Storm: "correlated:eth.rtl8139,k=2,every=1s,mode=kill",
			Workload:        "mixed-seed11",
			AvailabilityPct: 95, NodeAvailabilityPct: 100, RecoveredPct: 100,
			Latency:            bench.LatencyMs{Count: 500, P50Ms: 4.5, P99Ms: 60},
			MaxRecoveryOverlap: 2,
			Classes: []bench.FleetClass{{
				Class: "net", AvailabilityPct: 96, Requests: 360,
				Latency: bench.LatencyMs{Count: 360, P50Ms: 4.2, P95Ms: 7.3, P99Ms: 9.7},
				SLO:     &bench.FleetSLO{BudgetMs: 25, AttainedPct: 99.4, WindowPct: 95},
			}, {
				Class: "disk", AvailabilityPct: 100, Requests: 175,
				Latency: bench.LatencyMs{Count: 175, P50Ms: 6.8, P95Ms: 12.4, P99Ms: 17.8},
				SLO:     &bench.FleetSLO{BudgetMs: 40, AttainedPct: 100, WindowPct: 100},
			}},
		},
		Decisions: &bench.Decisions{
			Schema: bench.SchemaDecisions,
			Spec:   "seeds=11 victims=eth.rtl8139 faults=bit-flip per-cell=10",
			Baseline: bench.DecisionVariant{
				Name: "baseline", Crashes: 9, Recovered: 9,
				AvailabilityPct: 99.2, Events: 120,
				Recovery: bench.LatencyMs{Count: 9, P95Ms: 95},
			},
			Overrides: []bench.DecisionVariant{{
				Name: "budget=1", Crashes: 9, Recovered: 2, GaveUp: 1,
				AvailabilityPct: 42.5, Events: 60,
			}},
		},
	}
}

func TestDiffUnchangedPasses(t *testing.T) {
	r := Diff(baseEntry("a"), baseEntry("b"), DefaultThresholds)
	if got := r.Worst(); got != OK {
		var buf bytes.Buffer
		r.WriteText(&buf)
		t.Fatalf("identical entries graded %v:\n%s", got, buf.String())
	}
	if len(r.Findings) == 0 {
		t.Fatal("no metrics compared")
	}
	if len(r.Missing) != 0 {
		t.Fatalf("missing metrics on identical entries: %v", r.Missing)
	}
}

// The acceptance case: a synthetic 10%+ throughput regression must fail
// the gate; the same movement in recovery-latency p95 must too.
func TestDiffTenPercentRegressionFails(t *testing.T) {
	old, cur := baseEntry("good"), baseEntry("bad")
	cur.Throughput.Points[1].MBps = old.Throughput.Points[1].MBps * 0.89 // -11%
	r := Diff(old, cur, DefaultThresholds)
	if got := r.Worst(); got != Fail {
		t.Fatalf("11%% throughput drop graded %v, want FAIL", got)
	}
	found := false
	for _, f := range r.Findings {
		if f.Metric == "throughput/fig7/interval_2s/mbps" {
			found = true
			if f.Severity != Fail || f.RegressionPct < 10 {
				t.Errorf("finding = %+v, want Fail with regression >= 10%%", f)
			}
		}
	}
	if !found {
		t.Fatal("throughput metric not in report")
	}

	old, cur = baseEntry("good"), baseEntry("slow")
	cur.Figures[0].Recovery.P95Ms = old.Figures[0].Recovery.P95Ms * 1.15 // +15%
	if got := Diff(old, cur, DefaultThresholds).Worst(); got != Fail {
		t.Fatalf("15%% recovery-p95 growth graded %v, want FAIL", got)
	}
}

// The fleet acceptance case: a synthetic ~10% fleet-availability drop
// must fail the gate (availability is higher-better), and a 10%+ p99
// request-latency growth must too (lower-better).
func TestDiffFleetRegressionFails(t *testing.T) {
	old, cur := baseEntry("good"), baseEntry("outage")
	cur.Fleet.AvailabilityPct = old.Fleet.AvailabilityPct * 0.89 // -11%
	r := Diff(old, cur, DefaultThresholds)
	found := false
	for _, f := range r.Findings {
		if f.Metric == "fleet/availability_pct" {
			found = true
			if f.Severity != Fail || !f.HigherBetter {
				t.Errorf("finding = %+v, want higher-better Fail", f)
			}
		}
	}
	if !found {
		t.Fatal("fleet/availability_pct not in report")
	}
	if got := r.Worst(); got != Fail {
		t.Fatalf("11%% availability drop graded %v, want FAIL", got)
	}

	old, cur = baseEntry("good"), baseEntry("slow")
	cur.Fleet.Latency.P99Ms = old.Fleet.Latency.P99Ms * 1.12 // +12%
	if got := Diff(old, cur, DefaultThresholds).Worst(); got != Fail {
		t.Fatalf("12%% fleet p99 growth graded %v, want FAIL", got)
	}
	// Latency FALLING is an improvement, never a regression.
	old, cur = baseEntry("good"), baseEntry("fast")
	cur.Fleet.Latency.P99Ms = old.Fleet.Latency.P99Ms * 0.5
	cur.Fleet.AvailabilityPct = 100
	if got := Diff(old, cur, DefaultThresholds).Worst(); got != OK {
		t.Fatalf("fleet improvement graded %v, want ok", got)
	}
}

// TestDiffSLORegressionFails: per-class SLO attainment is higher-better
// — a synthetic 11% attainment drop must fail, and per-class latency
// percentiles gate too.
func TestDiffSLORegressionFails(t *testing.T) {
	old, cur := baseEntry("good"), baseEntry("missed-slo")
	cur.Fleet.Classes[0].SLO.AttainedPct = old.Fleet.Classes[0].SLO.AttainedPct * 0.89
	r := Diff(old, cur, DefaultThresholds)
	found := false
	for _, f := range r.Findings {
		if f.Metric == "fleet/class/net/slo_attained_pct" {
			found = true
			if f.Severity != Fail || !f.HigherBetter {
				t.Errorf("finding = %+v, want higher-better Fail", f)
			}
		}
	}
	if !found {
		t.Fatal("fleet/class/net/slo_attained_pct not in report")
	}
	if got := r.Worst(); got != Fail {
		t.Fatalf("11%% SLO attainment drop graded %v, want FAIL", got)
	}

	old, cur = baseEntry("good"), baseEntry("slow-class")
	cur.Fleet.Classes[1].Latency.P95Ms = old.Fleet.Classes[1].Latency.P95Ms * 1.2
	if got := Diff(old, cur, DefaultThresholds).Worst(); got != Fail {
		t.Fatalf("20%% class p95 growth graded %v, want FAIL", got)
	}

	// Dropping the SLO block entirely is reported as missing, not ignored.
	old, cur = baseEntry("good"), baseEntry("no-slo")
	cur.Fleet.Classes[0].SLO = nil
	r = Diff(old, cur, DefaultThresholds)
	if len(r.Missing) == 0 || r.Worst() < Warn {
		t.Fatalf("dropped SLO block: missing=%v worst=%v, want warn", r.Missing, r.Worst())
	}
}

func TestDiffSmallMovementWarns(t *testing.T) {
	old, cur := baseEntry("a"), baseEntry("b")
	cur.Figures[0].MeanMBps = old.Figures[0].MeanMBps * 0.93 // -7%: warn
	r := Diff(old, cur, DefaultThresholds)
	if got := r.Worst(); got != Warn {
		t.Fatalf("7%% drop graded %v, want WARN", got)
	}
	// Movement in the GOOD direction never trips the gate.
	old, cur = baseEntry("a"), baseEntry("c")
	cur.Figures[0].MeanMBps = old.Figures[0].MeanMBps * 1.5
	cur.Figures[0].Recovery.P95Ms = old.Figures[0].Recovery.P95Ms * 0.5
	if got := Diff(old, cur, DefaultThresholds).Worst(); got != OK {
		t.Fatalf("improvement graded %v, want ok", got)
	}
}

func TestDiffInvariantViolationsFromZeroFail(t *testing.T) {
	old, cur := baseEntry("a"), baseEntry("b")
	old.Campaign.InvariantViolations = 0
	cur.Campaign.InvariantViolations = 1
	if got := Diff(old, cur, DefaultThresholds).Worst(); got != Fail {
		t.Fatalf("invariant violations 0 -> 1 graded %v, want FAIL", got)
	}
}

func TestDiffDroppedMetricWarns(t *testing.T) {
	old, cur := baseEntry("a"), baseEntry("b")
	cur.Campaign = nil
	r := Diff(old, cur, DefaultThresholds)
	if got := r.Worst(); got != Warn {
		t.Fatalf("dropped campaign graded %v, want WARN", got)
	}
	if len(r.Missing) == 0 {
		t.Fatal("dropped metrics not listed")
	}
}

func TestHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	// Absent file reads as empty history.
	if h, err := ReadHistoryFile(path); err != nil || len(h) != 0 {
		t.Fatalf("absent history: %d entries, err=%v", len(h), err)
	}
	for _, label := range []string{"one", "two", "three"} {
		if err := AppendHistory(path, baseEntry(label)); err != nil {
			t.Fatal(err)
		}
	}
	h, err := ReadHistoryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 3 || h[0].Label != "one" || h[2].Label != "three" {
		t.Fatalf("round trip: %d entries, labels %q %q", len(h), h[0].Label, h[len(h)-1].Label)
	}
	if h[1].Throughput == nil || h[1].Campaign == nil || len(h[1].Figures) != 1 {
		t.Fatalf("entry 1 lost documents: %+v", h[1])
	}
}

func TestLoadEntry(t *testing.T) {
	dir := t.TempDir()
	e := baseEntry("")
	if err := bench.WriteFile(filepath.Join(dir, "BENCH_throughput.json"), e.Throughput); err != nil {
		t.Fatal(err)
	}
	if err := bench.WriteFile(filepath.Join(dir, "BENCH_fig7.json"), e.Figures[0]); err != nil {
		t.Fatal(err)
	}
	if err := bench.WriteFile(filepath.Join(dir, "BENCH_fleet.json"), e.Fleet); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEntry(dir, "sha1234")
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "sha1234" || got.Throughput == nil || got.Campaign != nil || len(got.Figures) != 1 {
		t.Fatalf("loaded entry = %+v", got)
	}
	if got.Fleet == nil || got.Fleet.Policy != "failure-aware" {
		t.Fatalf("fleet document not loaded: %+v", got.Fleet)
	}
	if got.Figures[0].Name != "fig7" {
		t.Fatalf("figure name %q", got.Figures[0].Name)
	}
	// Malformed document is an error, not a skip.
	if err := os.WriteFile(filepath.Join(dir, "BENCH_campaign.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEntry(dir, ""); err == nil {
		t.Fatal("malformed BENCH_campaign.json not reported")
	}
}

func TestReportText(t *testing.T) {
	old, cur := baseEntry("aaa"), baseEntry("bbb")
	cur.Throughput.Points[1].MBps *= 0.8
	var buf bytes.Buffer
	Diff(old, cur, DefaultThresholds).WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"aaa -> bbb", "FAIL", "throughput/fig7/interval_2s/mbps", "worst: FAIL"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestDiffDecisionsRegression(t *testing.T) {
	// Baseline availability and give-ups are gated; override variants are
	// counterfactuals and must not be.
	old, cur := baseEntry("a"), baseEntry("b")
	cur.Decisions.Baseline.AvailabilityPct *= 0.8
	cur.Decisions.Baseline.GaveUp = 3
	cur.Decisions.Overrides[0].AvailabilityPct = 1 // should not matter
	r := Diff(old, cur, DefaultThresholds)
	if got := r.Worst(); got != Fail {
		var buf bytes.Buffer
		r.WriteText(&buf)
		t.Fatalf("decisions regression graded %v, want FAIL:\n%s", got, buf.String())
	}
	for _, f := range r.Findings {
		if strings.Contains(f.Metric, "override") {
			t.Fatalf("override variant gated: %+v", f)
		}
	}
}

func TestLoadEntryDecisions(t *testing.T) {
	dir := t.TempDir()
	e := baseEntry("")
	if err := bench.WriteFile(filepath.Join(dir, "BENCH_decisions.json"), e.Decisions); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEntry(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Decisions == nil || got.Decisions.Baseline.AvailabilityPct != 99.2 {
		t.Fatalf("decisions document not loaded: %+v", got.Decisions)
	}
	if len(got.Decisions.Overrides) != 1 || got.Decisions.Overrides[0].Name != "budget=1" {
		t.Fatalf("overrides lost: %+v", got.Decisions.Overrides)
	}
}

// History written before the simulator-speed schema was retired still
// carries its document under a key Entry no longer has. The loader must accept
// such a line, ignore the retired document and keep the rest, so a
// cached CI trajectory survives the schema's removal.
func TestReadHistoryIgnoresRetiredDocuments(t *testing.T) {
	h, err := ReadHistoryFile(filepath.Join("testdata", "history_legacy.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 1 || h[0].Label != "legacy" {
		t.Fatalf("legacy history: %d entries %+v", len(h), h)
	}
	if h[0].Throughput == nil || len(h[0].Throughput.Points) != 1 || h[0].Throughput.Points[0].MBps != 10.8 {
		t.Fatalf("throughput document beside the retired one lost: %+v", h[0].Throughput)
	}
	if r := Diff(h[0], h[0], DefaultThresholds); r.Worst() != OK || len(r.Findings) != 1 {
		t.Fatalf("legacy entry against itself: worst %v, %d findings", r.Worst(), len(r.Findings))
	}
}
