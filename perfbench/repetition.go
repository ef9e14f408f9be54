package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"syscall"
	"time"

	"resilientos/internal/perf"
)

// repReport is what one repetition process reports to the run that
// started it.
type repReport struct {
	Setup       float64            `json:"setup_s"`
	Wall        float64            `json:"wall_s"`
	Ops         float64            `json:"ops"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	PeakRSSMB   float64            `json:"peak_rss_mb"`
	Allocs      uint64             `json:"allocs"` // heap objects allocated by the run phase
	Fingerprint []stat             `json:"fingerprint"`
	Layer       map[string]float64 `json:"layer,omitempty"` // traced repetitions only
}

// runChild is the body of a repetition process: it runs one repetition
// in the given mode and prints its report as one JSON line.
func runChild(w workloadDef, pr params, mode string, stdout, stderr io.Writer) int {
	switch mode {
	case modePlain:
	case modeBaseline, modeTraced:
		// An attached profiler forces one worker; the untraced
		// repetitions it is compared with use one too.
		pr.Sizes.CampaignWorkers, pr.Sizes.FleetWorkers = 1, 1
	default:
		fmt.Fprintf(stderr, "perfbench: unknown repetition mode %q\n", mode)
		return 2
	}
	b, err := json.Marshal(runRepetition(w, pr, mode == modeTraced))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// runRepetition sets up and runs one repetition of w, with a fresh
// profiler attached when traced.
func runRepetition(w workloadDef, pr params, traced bool) repReport {
	setup := w.Prepare(pr)
	var p *perf.Profiler
	if traced {
		p = perf.New()
		p.Start(0)
	}
	var run func() rep
	setupWall, setupOutside := timed(p, func() { run = setup(p) })

	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(allocs)
	before := allocs[0].Value.Uint64()
	r := run()
	metrics.Read(allocs)

	out := repReport{
		Setup:       setupWall.Seconds(),
		Wall:        r.Wall.Seconds(),
		Ops:         r.Ops,
		Attempted:   r.Attempted,
		Failed:      r.Failed,
		Allocs:      allocs[0].Value.Uint64() - before,
		Fingerprint: r.Fingerprint,
	}
	if traced {
		p.Finish(0)
		out.Layer = layerMetrics(p, r, setupWall+r.Wall, setupOutside)
	}
	out.PeakRSSMB = peakRSSMB()
	return out
}

// regionMetrics names the count and self-time metrics of each perf
// region; the step region's count is sim.events, taken over the run
// phase only.
var regionMetrics = map[perf.Region][2]string{
	perf.RegionStep:       {"", "sim.step_self_ms"},
	perf.RegionBarrier:    {"sim.barrier.count", "sim.barrier_ms"},
	perf.RegionKernelIPC:  {"kernel.ipc.count", "kernel.ipc_self_ms"},
	perf.RegionUcode:      {"ucode.count", "ucode_self_ms"},
	perf.RegionObs:        {"obs.count", "obs_self_ms"},
	perf.RegionCheck:      {"check.count", "check_self_ms"},
	perf.RegionDecision:   {"decision.count", "decision_self_ms"},
	perf.RegionTimeseries: {"timeseries.count", "timeseries_self_ms"},
}

// layerMetrics turns one traced repetition into per-layer metrics.
// total is its set-up plus run wall time; setupOutside the part of the
// set-up spent outside perf regions.
func layerMetrics(p *perf.Profiler, r rep, total, setupOutside time.Duration) map[string]float64 {
	m := map[string]float64{
		"sim.events":    float64(r.RunEvents),
		"sim.virtual_s": r.VirtualS,
	}
	for i, rr := range p.Report().Regions {
		names := regionMetrics[perf.Region(i)]
		if names[0] != "" {
			m[names[0]] = float64(rr.Count)
		}
		m[names[1]] = float64(rr.SelfNs) / 1e6
	}
	// Attributed: time inside perf regions, plus the benchmark's own
	// set-up and verification spans outside them.
	attributed := regionSelf(p) + setupOutside + r.SpanSelf
	m["trace.attributed_pct"] = 100 * float64(attributed) / float64(total)
	for k, v := range r.Layer {
		m[k] = v
	}
	return m
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
