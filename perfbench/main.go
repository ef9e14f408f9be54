// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's public API for a fixed span of host
// time, checks every repetition's simulated output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer breakdown) as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Before it come the run manifest, one line per repetition, the
// behaviour fingerprint and a human table. A run whose output check
// fails exits 1.
//
//	perfbench -workload fig7_wget -seed 11 -seconds 30 -trace 0
//	perfbench -workload swifi_campaign -quick
//
// README.md in this directory explains the workloads, the metrics and
// the prediction of which layer moves which metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DefaultSeed is the seed the baseline was measured on; HeldOutSeed is
// kept back for confirming a claimed gain on inputs not used while the
// change was written.
const (
	DefaultSeed = 11
	HeldOutSeed = 1729
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line settings of one run.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Quick    bool
	Child    string // set in a repetition process: its mode
}

// Repetition modes. Each repetition runs in a process of its own.
const (
	modePlain    = "plain"    // untraced, the workload's own worker counts
	modeBaseline = "baseline" // untraced at one worker: the traced run's comparison
	modeTraced   = "traced"   // profiler attached, one worker
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	var o options
	fs.StringVar(&o.Workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&o.Seed, "seed", DefaultSeed, fmt.Sprintf("input seed (held-out seed for confirming claims: %d)", HeldOutSeed))
	fs.Float64Var(&o.Seconds, "seconds", 30, "host seconds to keep repeating the workload")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	fs.BoolVar(&o.Quick, "quick", false, "tiny sizes, one repetition (self-tests)")
	fs.StringVar(&o.Child, "child", "", "internal: run one repetition in this process ("+
		strings.Join([]string{modePlain, modeBaseline, modeTraced}, ", ")+") and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(o.Workload)
	if fs.NArg() != 0 || !ok || o.Seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "usage: perfbench -workload {%s} [-seed n] [-seconds s] [-trace 0|1] [-quick]\n",
			strings.Join(names, "|"))
		return 2
	}
	o.Trace = *traceFlag == 1
	pr := params{Seed: o.Seed, Sizes: fullSizes}
	if o.Quick {
		pr.Sizes = quickSizes
	}

	if o.Child != "" {
		return runChild(w, pr, o.Child, stdout, stderr)
	}

	printManifest(stdout, o, pr)
	var res result
	var err error
	if o.Trace {
		res, err = measureTraced(w, o, stdout, stderr)
	} else {
		res, err = measure(w, o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return report(stdout, stderr, w, o.Trace, res)
}

// report prints the fingerprint, the human table and the result line of
// a finished run, and returns the exit code: 1 when an operation failed
// its output check or the fingerprint diverged between repetitions.
func report(stdout, stderr io.Writer, w workloadDef, trace bool, res result) int {
	for _, s := range res.Fingerprint {
		fmt.Fprintf(stdout, "fingerprint %s=%s\n", s.Name, s.Value)
	}
	if res.Diverged != "" {
		fmt.Fprintf(stdout, "FINGERPRINT DIVERGED across repetitions: %s\n", res.Diverged)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "%s: %d repetitions, %d operations attempted, %d failed (failed_pct %.4f %%)\n",
		w.Name, res.Reps, res.Attempted, res.Failed, 100*float64(res.Failed)/float64(max(res.Attempted, 1)))
	if !trace {
		fmt.Fprintf(stdout, "  %-24s %16.4f %s\n", w.OpName, res.Metrics["ops_per_s"], w.OpUnit+"/s")
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-24s %16.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}

	correct := res.Failed == 0 && res.Diverged == ""
	line := output{Correct: correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: res.Metrics[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricDef names one reported metric; the lists mirror BENCHMARK.json.
type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.virtual_s", "s", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.allocs_per_event", "count", "lower"},
	{"sim.step_self_ms", "ms", "lower"},
	{"sim.barrier.count", "count", "lower"},
	{"sim.barrier_ms", "ms", "lower"},
	{"kernel.ipc.count", "count", "lower"},
	{"kernel.ipc_self_ms", "ms", "lower"},
	{"kernel.ipc_ns_per_call", "ns", "lower"},
	{"ucode.count", "count", "lower"},
	{"ucode_self_ms", "ms", "lower"},
	{"obs.count", "count", "lower"},
	{"obs_self_ms", "ms", "lower"},
	{"check.count", "count", "lower"},
	{"check_self_ms", "ms", "lower"},
	{"check.ns_per_step", "ns", "lower"},
	{"decision.count", "count", "lower"},
	{"decision_self_ms", "ms", "lower"},
	{"timeseries.count", "count", "lower"},
	{"timeseries_self_ms", "ms", "lower"},
	{"boot_ms", "ms", "lower"},
	{"campaign.cells", "count", "higher"},
	{"campaign.faults", "count", "higher"},
	{"campaign.crashes", "count", "higher"},
	{"campaign.recovered", "count", "higher"},
	{"campaign.violations", "count", "lower"},
	{"campaign.cell_ms_p50", "ms", "lower"},
	{"campaign.cell_ms_p90", "ms", "lower"},
	{"cluster.requests", "count", "higher"},
	{"cluster.completed", "count", "higher"},
	{"cluster.availability_pct", "%", "higher"},
	{"cluster.unattributed_ms", "ms", "lower"},
	{"workload.arrivals", "count", "higher"},
	{"workload.generate_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.attributed_pct", "%", "higher"},
}

// result is what one run reports.
type result struct {
	Reps              int
	Attempted, Failed int
	Fingerprint       []stat
	Diverged          string // first fingerprint entry that differed between repetitions
	Metrics           map[string]float64
}

// collector accumulates repetitions: it sums operations, checks that
// every repetition reproduced the first one's fingerprint, and keeps the
// per-repetition samples whose medians are reported.
type collector struct {
	log     io.Writer // one line per repetition
	res     result
	samples map[string][]float64
}

func newCollector(log io.Writer) *collector {
	return &collector{log: log, samples: map[string][]float64{}}
}

func (c *collector) add(mode string, r repReport) {
	fmt.Fprintf(c.log, "rep %d %s setup_s=%.6f wall_s=%.6f ops=%g peak_rss_mb=%.1f failed=%d/%d\n",
		c.res.Reps, mode, r.Setup, r.Wall, r.Ops, r.PeakRSSMB, r.Failed, r.Attempted)
	c.res.Reps++
	c.res.Attempted += r.Attempted
	c.res.Failed += r.Failed
	if c.res.Fingerprint == nil {
		c.res.Fingerprint = r.Fingerprint
	} else if c.res.Diverged == "" {
		c.res.Diverged = diff(c.res.Fingerprint, r.Fingerprint)
	}
}

func (c *collector) sample(name string, v float64) {
	c.samples[name] = append(c.samples[name], v)
}

func (c *collector) median(name string) float64 {
	return quantile(c.samples[name], 0.5)
}

// diff returns the first fingerprint entry that differs, or "".
func diff(a, b []stat) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d entries", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("%s: %s vs %s", a[i].Name, a[i].Value, b[i].Value)
		}
	}
	return ""
}

// childEnv is set in the environment of every repetition process; a
// test binary uses it to tell that it was started as one.
const childEnv = "PERFBENCH_CHILD"

// repeat starts one repetition process in the given mode and returns its
// report. A process per repetition keeps repetitions independent: the
// simulator leaves the goroutines of a finished system parked, so in one
// process every repetition would carry the heap of all earlier ones,
// and the peak RSS would grow with the number of repetitions.
func repeat(w workloadDef, o options, mode string, stderr io.Writer) (repReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return repReport{}, err
	}
	args := []string{"-child", mode, "-workload", w.Name, "-seed", strconv.FormatInt(o.Seed, 10)}
	if o.Quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return repReport{}, fmt.Errorf("%s repetition of %s: %w", mode, w.Name, err)
	}
	var r repReport
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return repReport{}, fmt.Errorf("%s repetition of %s: %w", mode, w.Name, err)
	}
	return r, nil
}

// measure is the untraced run: repeat the workload until the host-time
// budget is spent (at least once) and report the medians over
// repetitions of each end-to-end metric.
func measure(w workloadDef, o options, log, stderr io.Writer) (result, error) {
	c := newCollector(log)
	start := time.Now()
	for c.res.Reps == 0 || (!o.Quick && time.Since(start).Seconds() < o.Seconds) {
		r, err := repeat(w, o, modePlain, stderr)
		if err != nil {
			return result{}, err
		}
		c.add(modePlain, r)
		c.sample("ops_per_s", r.Ops/r.Wall)
		c.sample("wall_s", r.Wall)
		c.sample("setup_s", r.Setup)
		c.sample("peak_rss_mb", r.PeakRSSMB)
	}
	c.res.Metrics = map[string]float64{}
	for _, d := range endToEnd {
		c.res.Metrics[d.Name] = c.median(d.Name)
	}
	return c.res, nil
}

// measureTraced alternates untraced and traced repetitions, both at one
// worker, until the budget is spent. The untraced ones give the wall
// time and allocations per event and the tracing overhead; the traced
// ones give the per-layer numbers.
func measureTraced(w workloadDef, o options, log, stderr io.Writer) (result, error) {
	c := newCollector(log)
	start := time.Now()
	for c.res.Reps == 0 || (!o.Quick && time.Since(start).Seconds() < o.Seconds) {
		u, err := repeat(w, o, modeBaseline, stderr)
		if err != nil {
			return result{}, err
		}
		c.add(modeBaseline, u)
		c.sample("untraced_wall_s", u.Wall)
		c.sample("untraced_allocs", float64(u.Allocs))

		t, err := repeat(w, o, modeTraced, stderr)
		if err != nil {
			return result{}, err
		}
		c.add(modeTraced, t)
		c.sample("traced_wall_s", t.Wall)
		for k, v := range t.Layer {
			c.sample(k, v)
		}
	}

	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = c.median(d.Name)
	}
	if events := m["sim.events"]; events > 0 {
		m["sim.ns_per_event"] = c.median("untraced_wall_s") * 1e9 / events
		m["sim.allocs_per_event"] = c.median("untraced_allocs") / events
	}
	perCall := func(selfMs, count string) float64 {
		if m[count] == 0 {
			return 0
		}
		return m[selfMs] * 1e6 / m[count]
	}
	m["kernel.ipc_ns_per_call"] = perCall("kernel.ipc_self_ms", "kernel.ipc.count")
	m["check.ns_per_step"] = perCall("check_self_ms", "check.count")
	u := c.median("untraced_wall_s")
	m["trace.overhead_pct"] = 100 * (c.median("traced_wall_s") - u) / u
	c.res.Metrics = m
	return c.res, nil
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// printManifest records what a number was measured on and with.
func printManifest(w io.Writer, o options, pr params) {
	rev, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	fmt.Fprintf(w, "manifest go=%s os=%s arch=%s num_cpu=%d gomaxprocs=%d vcs.revision=%s vcs.modified=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), rev, modified)
	mode := "untraced"
	if o.Trace {
		mode = "traced (profiler attached: every repetition at 1 worker)"
	}
	fmt.Fprintf(w, "manifest workload=%s seed=%d seconds=%g mode=%s quick=%v\n",
		o.Workload, o.Seed, o.Seconds, mode, o.Quick)
	s := pr.Sizes
	fmt.Fprintf(w, "manifest sizes fig7_mb=%d checked_mb=%d fig7_kill=%v campaign_fault_types=%d faults_per_cell=%d campaign_workers=%d fleet_nodes=%d fleet_horizon=%v fleet_kill=%v fleet_workers=%d\n",
		s.Fig7MB, s.CheckedMB, s.Fig7Kill, s.CampaignFaultTypes, s.FaultsPerCell, s.CampaignWorkers,
		s.FleetNodes, s.FleetHorizon, s.FleetKill, s.FleetWorkers)
}
