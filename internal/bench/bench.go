// Package bench defines the machine-readable performance baselines the
// benchmark commands emit: BENCH_throughput.json (cmd/throughput),
// BENCH_campaign.json (cmd/faultbench), BENCH_fig7/8.json and
// BENCH_recovery.json (cmd/figures), BENCH_fleet.json (cmd/fleetbench)
// and BENCH_decisions.json (cmd/whatif). The schemas are documented in
// EXPERIMENTS.md; CI uploads the files as artifacts and cmd/benchgate
// trends them, so regressions are diffable across commits. Virtual-time
// numbers are deterministic for a fixed seed+workload; wall-clock fields
// describe the run machine and are expected to vary.
package bench

import (
	"encoding/json"
	"os"

	"resilientos/internal/obs"
	"resilientos/internal/sim"
)

// Schema identifiers; bump the version on incompatible field changes.
const (
	SchemaThroughput = "resilientos/bench/throughput/v1"
	SchemaCampaign   = "resilientos/bench/campaign/v1"
	SchemaFigure     = "resilientos/bench/figure/v1"
	SchemaFleet      = "resilientos/bench/fleet/v1"
	SchemaDecisions  = "resilientos/bench/decisions/v1"
	SchemaRecovery   = "resilientos/bench/recovery/v1"
)

// LatencyMs is a recovery-latency distribution in virtual milliseconds.
type LatencyMs struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Latency converts an obs summary to the JSON shape.
func Latency(s obs.LatencySummary) LatencyMs {
	ms := func(t sim.Time) float64 { return float64(t) / 1e6 }
	return LatencyMs{
		Count: s.Count, MeanMs: ms(s.Mean),
		P50Ms: ms(s.P50), P95Ms: ms(s.P95), P99Ms: ms(s.P99), MaxMs: ms(s.Max),
	}
}

// ThroughputPoint is one kill-interval point of a Fig. 7/8 sweep.
type ThroughputPoint struct {
	KillIntervalS  float64   `json:"kill_interval_s"` // 0 = uninterrupted
	Bytes          int64     `json:"bytes"`
	VirtualS       float64   `json:"virtual_s"` // transfer duration, virtual time
	MBps           float64   `json:"mbps"`
	OpsPerVirtualS float64   `json:"ops_per_virtual_s"` // 64 KiB reads per virtual second
	Kills          int       `json:"kills"`
	Recoveries     int       `json:"recoveries"`
	OK             bool      `json:"ok"`
	Recovery       LatencyMs `json:"recovery"`
}

// Throughput is the BENCH_throughput.json document.
type Throughput struct {
	Schema     string            `json:"schema"`
	Experiment string            `json:"experiment"` // "fig7" or "fig8"
	Seed       int64             `json:"seed"`
	SizeBytes  int64             `json:"size_bytes"`
	WallClockS float64           `json:"wall_clock_s"`
	Points     []ThroughputPoint `json:"points"`
}

// Figure is the BENCH_fig7.json / BENCH_fig8.json document: the summary
// of one windowed figure run (cmd/figures), the per-commit shape the
// bench-regression gate (compare) trends. Virtual-time fields are
// deterministic for a fixed seed; WallClockS varies by machine.
type Figure struct {
	Schema         string    `json:"schema"`
	Name           string    `json:"name"` // "fig7" or "fig8"
	Seed           int64     `json:"seed"`
	SizeBytes      int64     `json:"size_bytes"`
	KillIntervalS  float64   `json:"kill_interval_s"`
	Windows        int       `json:"windows"`
	Kills          int       `json:"kills"`
	OK             bool      `json:"ok"`
	MBps           float64   `json:"mbps"`          // end-to-end transfer rate
	BaselineMBps   float64   `json:"baseline_mbps"` // pre-kill windowed rate
	MeanMBps       float64   `json:"mean_mbps"`
	MinMBps        float64   `json:"min_mbps"`
	Dips           int       `json:"dips"`
	MeanDipDepth   float64   `json:"mean_dip_depth_pct"`
	MeanDipWidthMs float64   `json:"mean_dip_width_ms"`
	RecoveredPct   float64   `json:"recovered_pct"` // post-recovery rate vs baseline
	Recovery       LatencyMs `json:"recovery"`
	WallClockS     float64   `json:"wall_clock_s"`
}

// CampaignFault aggregates one fault type of a SWIFI campaign.
type CampaignFault struct {
	Fault     string    `json:"fault"`
	Injected  int       `json:"injected"`
	Crashes   int       `json:"crashes"`
	Recovered int       `json:"recovered"`
	GaveUp    int       `json:"gave_up"`
	Recovery  LatencyMs `json:"recovery"`
}

// Campaign is the BENCH_campaign.json document.
type Campaign struct {
	Schema              string          `json:"schema"`
	Seeds               int             `json:"seeds"`
	Cells               int             `json:"cells"`
	FaultsPerCell       int             `json:"faults_per_cell"`
	Workers             int             `json:"workers"`
	Injected            int             `json:"injected"`
	Crashes             int             `json:"crashes"`
	Recovered           int             `json:"recovered"`
	GaveUp              int             `json:"gave_up"`
	RecoveryRatePct     float64         `json:"recovery_rate_pct"`
	InvariantViolations int             `json:"invariant_violations"`
	WallClockS          float64         `json:"wall_clock_s"`
	ByFault             []CampaignFault `json:"by_fault"`
}

// FleetSLO is one class's attainment against its workload-declared
// latency budget.
type FleetSLO struct {
	BudgetMs    float64 `json:"budget_ms"`
	AttainedPct float64 `json:"attained_pct"` // requests within budget; higher is better
	WindowPct   float64 `json:"window_pct"`   // windows within budget; higher is better
}

// FleetClass is one service class's slice of a fleet campaign.
type FleetClass struct {
	Class               string    `json:"class"`
	AvailabilityPct     float64   `json:"availability_pct"`      // higher is better
	NodeAvailabilityPct float64   `json:"node_availability_pct"` // higher is better
	Requests            int64     `json:"requests"`
	Latency             LatencyMs `json:"latency"`       // request latency, lower is better
	SLO                 *FleetSLO `json:"slo,omitempty"` // nil without a declared budget
}

// Fleet is the BENCH_fleet.json document: the summary of one
// cmd/fleetbench campaign (internal/cluster). Direction conventions for
// the regression gate: availability and recovery percentages are
// higher-better, request-latency percentiles are lower-better. All
// fields but WallClockS are deterministic for a fixed fleet seed.
type Fleet struct {
	Schema   string  `json:"schema"`
	Nodes    int     `json:"nodes"`
	Seed     int64   `json:"seed"`
	Policy   string  `json:"policy"`
	Storm    string  `json:"storm"`
	Workload string  `json:"workload,omitempty"` // driving spec/trace name
	HorizonS float64 `json:"horizon_s"`
	WindowMs float64 `json:"window_ms"`
	Windows  int     `json:"windows"`

	AvailabilityPct     float64 `json:"availability_pct"`      // higher is better
	NodeAvailabilityPct float64 `json:"node_availability_pct"` // higher is better

	Requests  int64     `json:"requests"`
	Completed int64     `json:"completed"`
	Reroutes  int64     `json:"reroutes"`
	Latency   LatencyMs `json:"latency"` // request latency, lower is better

	Kills        int     `json:"kills"`
	Injections   int     `json:"injections"`
	Crashes      int     `json:"crashes"`
	Recovered    int     `json:"recovered"`
	GaveUp       int     `json:"gave_up"`
	RecoveredPct float64 `json:"recovered_pct"` // higher is better

	MaxRecoveryOverlap  int     `json:"max_recovery_overlap"`
	MeanRecoveryOverlap float64 `json:"mean_recovery_overlap"`

	WallClockS float64      `json:"wall_clock_s"`
	Classes    []FleetClass `json:"classes"`
}

// DecisionVariant is one knob configuration of a counterfactual sweep:
// the baseline, or one override re-run of the same recorded campaign.
type DecisionVariant struct {
	Name            string    `json:"name"` // "baseline" or the override spec
	Crashes         int       `json:"crashes"`
	Recovered       int       `json:"recovered"`
	GaveUp          int       `json:"gave_up"`
	AvailabilityPct float64   `json:"availability_pct"` // higher is better
	Events          int       `json:"events"`           // decision-trace length
	Recovery        LatencyMs `json:"recovery"`
}

// Decisions is the BENCH_decisions.json document: the summary of one
// cmd/whatif counterfactual sweep over a recorded campaign. The baseline
// feeds the regression gate (availability, give-ups, recovery p95);
// override variants are trended but not gated — they exist to show what
// each knob costs, not to pin it.
type Decisions struct {
	Schema     string            `json:"schema"`
	Spec       string            `json:"spec"` // canonical baseline scenario
	Workers    int               `json:"workers"`
	WallClockS float64           `json:"wall_clock_s"`
	Baseline   DecisionVariant   `json:"baseline"`
	Overrides  []DecisionVariant `json:"overrides"`
}

// RecoveryMechanism is one mechanism's slice of a recovery-mechanism
// comparison: the same figure run (seed, size, crash cadence) under one
// recovery mechanism. Dip depth and width are lower-better.
type RecoveryMechanism struct {
	Mechanism      string    `json:"mechanism"` // respawn, microreboot, standby
	OK             bool      `json:"ok"`
	MBps           float64   `json:"mbps"`
	BaselineMBps   float64   `json:"baseline_mbps"`
	Crashes        int       `json:"crashes"`
	Dips           int       `json:"dips"`
	MeanDipDepth   float64   `json:"mean_dip_depth_pct"` // lower is better
	MeanDipWidthMs float64   `json:"mean_dip_width_ms"`  // lower is better
	RecoveredPct   float64   `json:"recovered_pct"`      // higher is better
	Recovery       LatencyMs `json:"recovery"`
}

// Recovery is the BENCH_recovery.json document: the paper-style extension
// table comparing Fig. 7 dip depth/width across recovery mechanisms, one
// identical run per mechanism with VM-level crash injection. The gain
// fields pin the headline claims — a warm standby buys dip depth, a
// microreboot buys dip width — so a commit that erodes either fails the
// bench gate. All fields but WallClockS are deterministic per seed.
type Recovery struct {
	Schema      string              `json:"schema"`
	Fig         int                 `json:"fig"`
	Seed        int64               `json:"seed"`
	SizeBytes   int64               `json:"size_bytes"`
	CrashEveryS float64             `json:"crash_every_s"`
	WallClockS  float64             `json:"wall_clock_s"`
	Mechanisms  []RecoveryMechanism `json:"mechanisms"`

	// StandbyDepthGainPct is respawn's mean dip depth minus standby's
	// (percentage points; higher is better). MicroWidthGainMs is
	// respawn's mean dip width minus microreboot's (ms; higher is
	// better).
	StandbyDepthGainPct float64 `json:"standby_depth_gain_pct"`
	MicroWidthGainMs    float64 `json:"micro_width_gain_ms"`
}

// WriteFile marshals v as indented JSON (plus trailing newline) to path.
func WriteFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
