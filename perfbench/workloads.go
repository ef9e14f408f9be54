package main

import (
	"bytes"
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"resilientos"
	"resilientos/internal/campaign"
	"resilientos/internal/check"
	"resilientos/internal/cluster"
	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
	"resilientos/internal/workload"
)

// sizes fixes how much work one repetition of each workload does. The
// full preset is what the benchmark measures; the quick preset keeps
// every workload's structure (same layers exercised, same checks) at a
// size the self-tests can afford.
type sizes struct {
	Fig7MB             int64 // fig7_wget transfer
	CheckedMB          int64 // fig7_checked transfer
	Fig7Kill           time.Duration
	CampaignFaultTypes int // leading entries of campaign.AllFaultTypes
	FaultsPerCell      int
	CampaignWorkers    int
	FleetNodes         int
	FleetHorizon       time.Duration
	FleetKill          time.Duration
	FleetWorkers       int
}

var fullSizes = sizes{
	Fig7MB:             64,
	CheckedMB:          16,
	Fig7Kill:           time.Second,
	CampaignFaultTypes: 7,
	FaultsPerCell:      10,
	CampaignWorkers:    2,
	FleetNodes:         4,
	FleetHorizon:       120 * time.Second,
	FleetKill:          time.Second,
	FleetWorkers:       2,
}

var quickSizes = sizes{
	Fig7MB:             16,
	CheckedMB:          16,
	Fig7Kill:           time.Second,
	CampaignFaultTypes: 1,
	FaultsPerCell:      1,
	CampaignWorkers:    2,
	FleetNodes:         2,
	FleetHorizon:       2 * time.Second,
	FleetKill:          500 * time.Millisecond,
	FleetWorkers:       2,
}

// params is everything one repetition depends on besides the profiler.
type params struct {
	Seed  int64
	Sizes sizes
}

// stat is one exact simulated statistic of the behaviour fingerprint.
type stat struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// rep is the outcome of one repetition of a workload.
type rep struct {
	Wall time.Duration // host time from workload start to verified output
	Ops  float64       // work done: simulated MB, faults, or requests

	Attempted, Failed int
	Fingerprint       []stat

	// Filled when a profiler was attached (SpanSelf is 0 otherwise).
	RunEvents uint64             // scheduler events executed in the run phase
	VirtualS  float64            // virtual seconds simulated
	SpanSelf  time.Duration      // output-check span time outside perf regions
	Layer     map[string]float64 // workload-specific per-layer values
}

// workloadDef is one named workload of the benchmark.
type workloadDef struct {
	Name   string
	OpUnit string // what Ops counts, for the human report
	OpName string // the workload's own throughput metric name
	// Prepare builds the run's inputs from the seed once and returns
	// the set-up step.
	Prepare func(pr params) setupFunc
}

// setupFunc readies one repetition (p is nil when untraced) and returns
// the step that runs it.
type setupFunc func(p *perf.Profiler) func() rep

// workloads lists every workload the program runs. BENCHMARK.json holds
// all but swifi_campaign (see README.md for why).
var workloads = []workloadDef{
	{Name: "fig7_wget", OpUnit: "MB", OpName: "net_mb_per_s", Prepare: prepareFig7Bare},
	{Name: "fig7_checked", OpUnit: "MB", OpName: "net_mb_per_s", Prepare: prepareFig7Checked},
	{Name: "fleet_storm", OpUnit: "requests", OpName: "requests_per_s", Prepare: prepareFleet},
	{Name: "swifi_campaign", OpUnit: "faults", OpName: "faults_per_s", Prepare: prepareCampaign},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// regionSelf sums every perf region's self time. Regions nest, so the
// sum is the wall time spent inside any region.
func regionSelf(p *perf.Profiler) time.Duration {
	var ns int64
	for _, rr := range p.Report().Regions {
		ns += rr.SelfNs
	}
	return time.Duration(ns)
}

// timed runs fn and returns its wall time and the part of it spent
// outside perf regions (equal to the wall time when p is nil).
func timed(p *perf.Profiler, fn func()) (wall, outside time.Duration) {
	r0 := regionSelf(p)
	t0 := time.Now()
	fn()
	wall = time.Since(t0)
	return wall, wall - (regionSelf(p) - r0)
}

func shortHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// ---------------------------------------------------------------------
// fig7_wget and fig7_checked: the Fig. 7 transfer under driver kills.

// fig7Result is the simulated output of one fig7 repetition that the
// check judges.
type fig7Result struct {
	Wget       resilientos.WgetResult
	Kills      int
	Recovered  int
	Violations int // invariant violations (fig7_checked)
	BadTrace   int // decision-trace problems (fig7_checked)
}

// checkFig7 counts the kills plus the transfer as operations; a kill
// the driver never recovered from fails, and so does a transfer that is
// short, whose MD5 differs from the served file's, or during which an
// invariant broke or the decision trace came out malformed.
func checkFig7(r fig7Result, size int64, want [md5.Size]byte) (attempted, failed int) {
	attempted = r.Kills + 1
	if r.Recovered < r.Kills {
		failed += r.Kills - r.Recovered
	}
	if r.Wget.Err != nil || r.Wget.Bytes != size || r.Wget.MD5 != want ||
		r.Violations > 0 || r.BadTrace > 0 {
		failed++
	}
	return attempted, failed
}

// prepareFig7Bare boots one network-only node with no recorder, no
// checker and no decision log: the engine path alone.
func prepareFig7Bare(pr params) setupFunc {
	return prepareFig7(pr, pr.Sizes.Fig7MB, false)
}

// prepareFig7Checked boots the same node with what the SWIFI campaign
// attaches to every cell: a trace recorder (per-frame IPC kinds off),
// the live invariant checker on every step, and the decision log fed to
// the checker. The transfer is smaller because the recorder keeps every
// event in memory, as campaign cells do.
func prepareFig7Checked(pr params) setupFunc {
	return prepareFig7(pr, pr.Sizes.CheckedMB, true)
}

func prepareFig7(pr params, mb int64, checked bool) setupFunc {
	size := mb << 20
	want := resilientos.PatternMD5(pr.Seed, size)
	return func(p *perf.Profiler) func() rep {
		t0 := time.Now()
		cfg := resilientos.Config{
			Seed:        pr.Seed,
			DisableDisk: true,
			DisableChar: true,
			Perf:        p,
		}
		var decisions *decision.SliceSink
		if checked {
			rec := obs.NewRecorder(&obs.SliceSink{})
			rec.Disable(obs.KindIPCSend, obs.KindIPCRecv)
			decisions = &decision.SliceSink{}
			cfg.Obs = rec
			cfg.Decisions = decision.NewRecorder(decisions)
		}
		sys := resilientos.New(cfg)
		var ck *check.Checker
		if checked {
			ck = check.Attach(sys.Env, cfg.Obs, check.Config{Kernel: sys.Kernel, RS: sys.RS, DS: sys.DS})
			cfg.Decisions.AddSink(ck.DecisionSink())
		}
		sys.Run(3 * time.Second) // boot settle
		boot := time.Since(t0)
		return func() rep {
			out, r := runFig7(sys, p, pr, mb, func(r *fig7Result) {
				if checked {
					ck.Finish()
					r.Violations = len(ck.Violations())
					r.BadTrace = len(decision.Check(decisions.Events()))
				}
			})
			out.Attempted, out.Failed = checkFig7(r, size, want)
			if checked {
				out.Fingerprint = append(out.Fingerprint,
					stat{"check.violations", fmt.Sprint(r.Violations)},
					stat{"decision.events", fmt.Sprint(len(decisions.Events()))})
			}
			if p != nil {
				out.Layer = map[string]float64{"boot_ms": ms(boot)}
			}
			return out
		}
	}
}

// runFig7 serves and fetches mb megabytes over eth.rtl8139 while the
// driver is killed every Fig7Kill of virtual time, waits out the last
// recovery, and calls finish, the workload's own output checks, before
// the wall clock stops.
func runFig7(sys *resilientos.System, p *perf.Profiler, pr params, mb int64, finish func(*fig7Result)) (rep, fig7Result) {
	var out rep
	var r fig7Result
	size := mb << 20
	events0 := p.Count(perf.RegionStep)
	out.Wall, _ = timed(p, func() {
		sys.ServeFile(80, pr.Seed, size)
		sys.Wget(resilientos.DriverRTL8139, 80, pr.Seed, size, &r.Wget)
		done := func() bool { return r.Wget.Duration != 0 || r.Wget.Err != nil }
		kill := sys.Every(pr.Sizes.Fig7Kill, func() {
			if !done() {
				sys.KillDriver(resilientos.DriverRTL8139)
				r.Kills++
			}
		})
		horizon := sys.Env.Now() + sim.Time(10*time.Minute)
		for !done() && sys.Env.Now() < horizon {
			sys.Run(100 * time.Millisecond)
		}
		kill.Stop()
		// A kill just before the transfer ended may still be
		// recovering; give it the time a recovery needs.
		for i := 0; i < 100 && recovering(sys); i++ {
			sys.Run(100 * time.Millisecond)
		}
		for _, e := range sys.RS.Events() {
			if e.Label == resilientos.DriverRTL8139 && e.Recovered {
				r.Recovered++
			}
		}
		_, out.SpanSelf = timed(p, func() { finish(&r) })
	})
	out.Ops = float64(mb)
	virtualMBps := 0.0
	if r.Wget.Duration > 0 {
		virtualMBps = float64(r.Wget.Bytes) / 1e6 / r.Wget.Duration.Seconds()
	}
	out.Fingerprint = []stat{
		{"sim.events", fmt.Sprint(sys.Env.EventsExecuted())},
		{"sim.virtual_ns", fmt.Sprint(int64(sys.Env.Now()))},
		{"wget.bytes", fmt.Sprint(r.Wget.Bytes)},
		{"wget.md5", hex.EncodeToString(r.Wget.MD5[:])},
		{"wget.virtual_ns", fmt.Sprint(int64(r.Wget.Duration))},
		{"wget.virtual_mb_per_s", fmt.Sprintf("%.6f", virtualMBps)},
		{"kills", fmt.Sprint(r.Kills)},
		{"recovered", fmt.Sprint(r.Recovered)},
	}
	if p != nil {
		out.RunEvents = p.Count(perf.RegionStep) - events0
		out.VirtualS = time.Duration(sys.Env.Now()).Seconds()
	}
	return out, r
}

func recovering(sys *resilientos.System) bool {
	for _, s := range sys.RS.Services() {
		if s.Recovering {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// swifi_campaign: the §7.2 campaign as users run it.

// checkCampaign counts cells as operations; a cell fails on any
// invariant violation, a malformed decision trace, a driver RS gave up
// on, or a crash that was never recovered.
func checkCampaign(r *campaign.Report) (attempted, failed int) {
	for _, c := range r.Cells {
		attempted++
		if len(c.Violations) > 0 || len(decision.Check(c.Decisions)) > 0 ||
			c.GaveUp > 0 || c.Recovered < c.Crashes {
			failed++
		}
	}
	return attempted, failed
}

// prepareCampaign runs the whole matrix: seed × DefaultVictims × the
// fault types, with the invariant checker and decision log on every
// cell.
func prepareCampaign(pr params) setupFunc {
	return func(p *perf.Profiler) func() rep {
		cfg := campaign.Config{
			Seeds:         []int64{pr.Seed},
			Victims:       campaign.DefaultVictims,
			FaultTypes:    campaign.AllFaultTypes[:pr.Sizes.CampaignFaultTypes],
			FaultsPerCell: pr.Sizes.FaultsPerCell,
			Workers:       pr.Sizes.CampaignWorkers,
			Invariants:    true,
			Decisions:     true,
			Perf:          p,
		}
		cells := len(campaign.Cells(cfg))
		return func() rep { return runCampaign(cfg, cells, p) }
	}
}

func runCampaign(cfg campaign.Config, cells int, p *perf.Profiler) rep {
	var out rep

	// With one worker (always so when traced) the gaps between
	// progress calls are the cell durations.
	var cellMs []float64
	last := time.Now()
	cfg.Progress = func(done, total int) {
		now := time.Now()
		cellMs = append(cellMs, ms(now.Sub(last)))
		last = now
	}

	var r *campaign.Report
	var render bytes.Buffer
	out.Wall, _ = timed(p, func() {
		last = time.Now()
		r = campaign.Run(cfg)
		_, out.SpanSelf = timed(p, func() {
			out.Attempted, out.Failed = checkCampaign(r)
			r.Render(&render)
		})
	})
	out.Ops = float64(r.Injected)
	out.Fingerprint = []stat{
		{"campaign.cells", fmt.Sprint(len(r.Cells))},
		{"campaign.faults", fmt.Sprint(r.Injected)},
		{"campaign.crashes", fmt.Sprint(r.Crashes)},
		{"campaign.recovered", fmt.Sprint(r.Recovered)},
		{"campaign.gave_up", fmt.Sprint(r.GaveUp)},
		{"campaign.violations", fmt.Sprint(len(r.Violations))},
		{"campaign.decision_events", fmt.Sprint(len(r.DecisionLog))},
		{"campaign.availability_pct", fmt.Sprintf("%.6f", r.Availability())},
		{"campaign.report_sha256", shortHash(render.Bytes())},
		{"campaign.cells_sha256", cellsHash(r.Cells)},
	}
	if cells != len(r.Cells) {
		out.Failed = out.Attempted
	}
	if p != nil {
		out.RunEvents = p.Count(perf.RegionStep)
		out.VirtualS = time.Duration(r.Horizon).Seconds()
		out.Layer = map[string]float64{
			"campaign.cells":       float64(len(r.Cells)),
			"campaign.faults":      float64(r.Injected),
			"campaign.crashes":     float64(r.Crashes),
			"campaign.recovered":   float64(r.Recovered),
			"campaign.violations":  float64(len(r.Violations)),
			"campaign.cell_ms_p50": quantile(cellMs, 0.5),
			"campaign.cell_ms_p90": quantile(cellMs, 0.9),
		}
	}
	return out
}

// cellsHash digests what each cell did: its last mutation, crash and
// recovery counts, measured horizon, downtime and recovery latencies.
func cellsHash(cells []campaign.CellResult) string {
	var b bytes.Buffer
	for _, c := range cells {
		fmt.Fprintf(&b, "%d %d %d %d %v %d %d %d %v\n", c.Injected, c.Crashes, c.Recovered, c.GaveUp,
			c.LastInjection, c.Horizon, c.Downtime, len(c.Decisions), c.Latencies)
	}
	return shortHash(b.Bytes())
}

// ---------------------------------------------------------------------
// fleet_storm: lockstep barriers, health sampling and routing.

// fleetSpec is the benchmark's own mixed-class workload: net, disk and
// char streams with the arrival shapes of the seed-11 fleet campaign.
const fleetSpec = `{
  "name": "perfbench-fleet",
  "seed": %d,
  "horizon": %q,
  "classes": [
    {"class": "net", "clients": 6, "rps": 90, "arrival": {"process": "poisson"},
     "size": {"min": 1024, "max": 65536}, "slo": "25ms",
     "periods": [{"period": "2s", "amplitude": 0.4}]},
    {"class": "disk", "clients": 3, "rps": 45, "arrival": {"process": "gamma", "shape": 4},
     "size": {"min": 4096, "max": 131072}, "slo": "40ms"},
    {"class": "char", "clients": 2, "rps": 15, "arrival": {"process": "weibull", "shape": 1.5},
     "size": {"min": 256, "max": 8192}, "slo": "35ms"}
  ]
}`

// checkFleet counts requests as operations; a request still incomplete
// after the drain fails, and every request fails when a node crash went
// unrecovered.
func checkFleet(r *cluster.Report) (attempted, failed int) {
	attempted = int(r.Requests)
	failed = int(r.Incomplete)
	if r.Recovered < r.Crashes || r.GaveUp > 0 {
		failed = attempted
	}
	return attempted, failed
}

func prepareFleet(pr params) setupFunc {
	return func(p *perf.Profiler) func() rep {
		t0 := time.Now()
		spec, err := workload.Parse([]byte(fmt.Sprintf(fleetSpec, pr.Seed, pr.Sizes.FleetHorizon)))
		if err != nil {
			panic(err) // the spec is a constant of this program
		}
		events := spec.Generate()
		genWall := time.Since(t0)
		t1 := time.Now()
		c := cluster.New(cluster.Config{
			Nodes:        pr.Sizes.FleetNodes,
			Seed:         pr.Seed,
			Horizon:      time.Duration(spec.Horizon),
			Workers:      pr.Sizes.FleetWorkers,
			Arrivals:     events,
			Classes:      spec.ClassNames(),
			Budgets:      spec.Budgets(),
			WorkloadName: spec.Name,
			Storm: cluster.Storm{
				Kind:     "correlated",
				Driver:   resilientos.DriverRTL8139,
				K:        2,
				Interval: pr.Sizes.FleetKill,
			},
			Perf: p,
		})
		boot := time.Since(t1)
		return func() rep { return runFleet(c, len(events), genWall, boot, p) }
	}
}

func runFleet(c *cluster.Cluster, arrivals int, genWall, boot time.Duration, p *perf.Profiler) rep {
	var out rep
	var r *cluster.Report
	var js bytes.Buffer
	var runOutside time.Duration
	out.Wall, _ = timed(p, func() {
		_, runOutside = timed(p, func() { r = c.Run() })
		_, out.SpanSelf = timed(p, func() {
			out.Attempted, out.Failed = checkFleet(r)
			if err := r.WriteJSON(&js); err != nil {
				out.Failed = out.Attempted
			}
		})
	})
	out.Ops = float64(r.Completed)
	var nodeEvents uint64
	for _, n := range c.Nodes() {
		nodeEvents += n.Sys.Env.EventsExecuted()
	}
	out.Fingerprint = []stat{
		{"workload.arrivals", fmt.Sprint(arrivals)},
		{"sim.node_events", fmt.Sprint(nodeEvents)},
		{"sim.virtual_ns", fmt.Sprint(int64(c.Now()))},
		{"cluster.requests", fmt.Sprint(r.Requests)},
		{"cluster.completed", fmt.Sprint(r.Completed)},
		{"cluster.incomplete", fmt.Sprint(r.Incomplete)},
		{"cluster.availability_pct", fmt.Sprintf("%.6f", r.AvailabilityPct)},
		{"cluster.crashes", fmt.Sprint(r.Crashes)},
		{"cluster.recovered", fmt.Sprint(r.Recovered)},
		{"cluster.report_sha256", shortHash(js.Bytes())},
	}
	if p != nil {
		out.RunEvents = p.Count(perf.RegionStep)
		out.VirtualS = time.Duration(c.Now()).Seconds()
		out.Layer = map[string]float64{
			"boot_ms":                  ms(boot),
			"cluster.requests":         float64(r.Requests),
			"cluster.completed":        float64(r.Completed),
			"cluster.availability_pct": r.AvailabilityPct,
			"cluster.unattributed_ms":  ms(runOutside),
			"workload.arrivals":        float64(arrivals),
			"workload.generate_ms":     ms(genWall),
		}
	}
	return out
}
