package resilientos_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"resilientos"
	"resilientos/internal/campaign"
	"resilientos/internal/check"
	"resilientos/internal/cluster"
	"resilientos/internal/fi"
	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/obs/timeseries"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
)

// TestProfilerNeverPerturbsSimulation pins the two-plane split of
// internal/perf: attaching a wall-clock profiler changes nothing the
// simulation computes. Each case runs once without and once with a
// Profiler and every output must be byte-identical. The fleet and
// campaign cases ask for two workers; the profiler forces one, so they
// also check that the forced serialization is invisible.
func TestProfilerNeverPerturbsSimulation(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, p *perf.Profiler) map[string][]byte
	}{
		{"fig7-checked", fig7CheckedOutputs},
		{"fleet-storm", fleetStormOutputs},
		{"campaign-shard", campaignShardOutputs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bare := tc.run(t, nil)
			p := perf.New()
			p.Start(0)
			profiled := tc.run(t, p)
			p.Finish(0)
			if p.Count(perf.RegionStep) == 0 {
				t.Fatal("profiler was never entered: the case does not attach it")
			}
			for name, want := range bare {
				if len(want) == 0 {
					t.Fatalf("%s: empty output, nothing compared", name)
				}
				if got := profiled[name]; !bytes.Equal(got, want) {
					t.Errorf("%s differs with a profiler attached (%d vs %d bytes)",
						name, len(got), len(want))
				}
			}
		})
	}
}

// fig7CheckedOutputs runs a seed-11 Fig. 7 wget under periodic NIC
// kills with the trace recorder, live invariant checker and decision
// log attached, as every SWIFI campaign cell does.
func fig7CheckedOutputs(t *testing.T, p *perf.Profiler) map[string][]byte {
	const seed, size = 11, 8 << 20
	var trace bytes.Buffer
	rec := obs.NewRecorder(obs.NewJSONLSink(&trace))
	rec.Disable(obs.KindIPCSend, obs.KindIPCRecv)
	decisions := &decision.SliceSink{}
	cfg := resilientos.Config{
		Seed:        seed,
		DisableDisk: true,
		DisableChar: true,
		Obs:         rec,
		Decisions:   decision.NewRecorder(decisions),
		Perf:        p,
	}
	sys := resilientos.New(cfg)
	ck := check.Attach(sys.Env, rec, check.Config{Kernel: sys.Kernel, RS: sys.RS, DS: sys.DS})
	cfg.Decisions.AddSink(ck.DecisionSink())
	sys.Run(3 * time.Second)

	sys.ServeFile(80, seed, size)
	var res resilientos.WgetResult
	sys.Wget(resilientos.DriverRTL8139, 80, seed, size, &res)
	done := func() bool { return res.Duration != 0 || res.Err != nil }
	kills := 0
	sys.Every(250*time.Millisecond, func() {
		if !done() {
			sys.KillDriver(resilientos.DriverRTL8139)
			kills++
		}
	})
	horizon := sys.Env.Now() + sim.Time(time.Minute)
	for !done() && sys.Env.Now() < horizon {
		sys.Run(100 * time.Millisecond)
	}
	ck.Finish()
	if !res.OK || kills == 0 {
		t.Fatalf("transfer ok=%v after %d kills: the run exercises no recovery", res.OK, kills)
	}
	if v := ck.Violations(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
	return map[string][]byte{
		"obs JSONL":      trace.Bytes(),
		"decision JSONL": decision.Encode(decisions.Events()),
		"wget result":    []byte(fmt.Sprintf("%+v", res)),
		"event count":    []byte(fmt.Sprint(sys.Env.EventsExecuted())),
	}
}

// fleetStormOutputs runs a 4-node fleet at two workers under a k=2
// correlated NIC-kill storm.
func fleetStormOutputs(t *testing.T, p *perf.Profiler) map[string][]byte {
	c := cluster.New(cluster.Config{
		Nodes:   4,
		Seed:    11,
		Horizon: 3 * time.Second,
		Window:  200 * time.Millisecond,
		Settle:  2 * time.Second,
		Drain:   4 * time.Second,
		RPS:     150,
		Storm: cluster.Storm{Kind: "correlated", Driver: resilientos.DriverRTL8139,
			K: 2, Interval: time.Second},
		Workers: 2,
		Perf:    p,
	})
	r := c.Run()
	if r.Completed == 0 || r.Kills == 0 {
		t.Fatalf("fleet served %d requests under %d kills: the storm exercises nothing", r.Completed, r.Kills)
	}
	var report, csv bytes.Buffer
	if err := r.WriteJSON(&report); err != nil {
		t.Fatal(err)
	}
	if err := timeseries.WriteCSV(&csv, c.Segments()); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"report JSON": report.Bytes(), "window CSV": csv.Bytes()}
}

// campaignShardOutputs runs a one-seed, one-victim SWIFI shard with
// invariants and decision logging on.
func campaignShardOutputs(t *testing.T, p *perf.Profiler) map[string][]byte {
	rep := campaign.Run(campaign.Config{
		Seeds:         []int64{1},
		Victims:       []string{resilientos.DriverRTL8139},
		FaultTypes:    []fi.FaultType{fi.FaultSrcReg, fi.FaultPointer},
		FaultsPerCell: 3,
		Invariants:    true,
		Decisions:     true,
		Workers:       2,
		Perf:          p,
	})
	if rep.Crashes == 0 {
		t.Fatal("campaign shard crashed nothing: it exercises no recovery")
	}
	var text bytes.Buffer
	rep.Render(&text)
	return map[string][]byte{
		"report":         text.Bytes(),
		"decision JSONL": decision.Encode(rep.DecisionLog),
	}
}
