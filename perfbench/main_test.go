package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"resilientos"
	"resilientos/internal/campaign"
	"resilientos/internal/cluster"
	"resilientos/internal/core"
	"resilientos/internal/obs/decision"
)

// TestMain lets the test binary serve as a repetition process: the
// command starts its repetitions by re-running its own executable.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// fingerprint runs one quick repetition of w and returns its fingerprint.
func fingerprint(t *testing.T, w workloadDef, seed int64, workers int) []stat {
	t.Helper()
	sz := quickSizes
	sz.CampaignWorkers, sz.FleetWorkers = workers, workers
	r := w.Prepare(params{Seed: seed, Sizes: sz})(nil)()
	if r.Failed != 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed", w.Name, seed, r.Failed, r.Attempted)
	}
	return r.Fingerprint
}

func TestFingerprintDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			base := fingerprint(t, w, DefaultSeed, 1)
			if d := diff(base, fingerprint(t, w, DefaultSeed, 1)); d != "" {
				t.Errorf("same seed, second run differs: %s", d)
			}
			if w.Name == "swifi_campaign" || w.Name == "fleet_storm" {
				if d := diff(base, fingerprint(t, w, DefaultSeed, 2)); d != "" {
					t.Errorf("workers 1 vs 2 differ: %s", d)
				}
			}
			if diff(base, fingerprint(t, w, HeldOutSeed, 1)) == "" {
				t.Errorf("seeds %d and %d give the same fingerprint", DefaultSeed, HeldOutSeed)
			}
		})
	}
}

// TestCheckingDoesNotPerturb pins that the recorder, checker and
// decision log of fig7_checked only observe: at the same size and seed
// its simulated run is fig7_wget's.
func TestCheckingDoesNotPerturb(t *testing.T) {
	bare, _ := findWorkload("fig7_wget")
	checked, _ := findWorkload("fig7_checked")
	a := fingerprint(t, bare, DefaultSeed, 1)
	b := fingerprint(t, checked, DefaultSeed, 1)
	if d := diff(a, b[:len(a)]); d != "" {
		t.Errorf("fig7_checked simulates differently from fig7_wget: %s", d)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must honour.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	if len(f.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads", len(f.Workloads))
	}
	for _, w := range f.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
}

// TestQuickRunPrintsEveryMetric drives the command itself in quick mode:
// every workload, untraced and traced, must end with a correct result
// line naming every metric of its kind with its unit.
func TestQuickRunPrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.Name, "-quick", "-trace", trace}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out output
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
					t.Errorf("result %+v", out)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
				}
				if trace == "0" {
					for _, d := range defs {
						if out.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v", d.Name, out.Metrics[d.Name].Value)
						}
					}
				}
				checked := w.Name == "fig7_checked" || w.Name == "swifi_campaign"
				if trace == "1" && checked != (out.Metrics["check.count"].Value > 0) {
					t.Errorf("check.count = %v with checker attached = %v", out.Metrics["check.count"].Value, checked)
				}
			})
		}
	}
}

func TestCorruptedResultsFail(t *testing.T) {
	const size = 1 << 20
	want := resilientos.PatternMD5(1, size)
	good := fig7Result{Wget: resilientos.WgetResult{Bytes: size, MD5: want, OK: true}, Kills: 3, Recovered: 3}
	if a, f := checkFig7(good, size, want); a != 4 || f != 0 {
		t.Fatalf("good fig7 result: attempted %d failed %d", a, f)
	}
	badMD5 := good
	badMD5.Wget.MD5[0] ^= 1
	unrecovered := good
	unrecovered.Recovered = 1
	short := good
	short.Wget.Bytes--
	for name, r := range map[string]fig7Result{"md5": badMD5, "unrecovered": unrecovered, "short": short} {
		if _, f := checkFig7(r, size, want); f == 0 {
			t.Errorf("fig7 %s mismatch not reported as failed", name)
		}
	}

	cell := func(mod func(*campaign.CellResult)) *campaign.Report {
		c := campaign.CellResult{Crashes: 2, Recovered: 2, ByDefect: map[core.Defect]int{}}
		mod(&c)
		return &campaign.Report{Cells: []campaign.CellResult{c, {}}}
	}
	if a, f := checkCampaign(cell(func(*campaign.CellResult) {})); a != 2 || f != 0 {
		t.Fatalf("good campaign: attempted %d failed %d", a, f)
	}
	for name, mod := range map[string]func(*campaign.CellResult){
		"unrecovered": func(c *campaign.CellResult) { c.Recovered = 1 },
		"gave up":     func(c *campaign.CellResult) { c.GaveUp = 1 },
		"violation":   func(c *campaign.CellResult) { c.Violations = make([]campaign.ViolationReport, 1) },
		"decision trace": func(c *campaign.CellResult) {
			c.Decisions = []decision.Event{{Kind: decision.KindAction, Service: "eth", Action: "restart"}}
		},
	} {
		if _, f := checkCampaign(cell(mod)); f != 1 {
			t.Errorf("campaign %s: %d cells failed, want 1", name, f)
		}
	}

	fleet := cluster.Report{Requests: 10, Completed: 10, Crashes: 4, Recovered: 4}
	if a, f := checkFleet(&fleet); a != 10 || f != 0 {
		t.Fatalf("good fleet: attempted %d failed %d", a, f)
	}
	incomplete := fleet
	incomplete.Completed, incomplete.Incomplete = 8, 2
	if _, f := checkFleet(&incomplete); f != 2 {
		t.Errorf("fleet incomplete: %d failed, want 2", f)
	}
	unrecoveredFleet := fleet
	unrecoveredFleet.Recovered = 3
	if _, f := checkFleet(&unrecoveredFleet); f != 10 {
		t.Errorf("fleet unrecovered crash: %d failed, want all 10", f)
	}
}

// TestFailedRunExitsNonzero drives the collector and the report: a
// repetition with a failed operation, or one whose fingerprint differs
// from the first repetition's, makes the run print "correct": false and
// exit 1.
func TestFailedRunExitsNonzero(t *testing.T) {
	w, _ := findWorkload("fig7_wget")
	good := repReport{Attempted: 9, Fingerprint: []stat{{"wget.md5", "05ae4cd9"}}}
	failed := good
	failed.Failed = 1
	diverged := good
	diverged.Fingerprint = []stat{{"wget.md5", "05ae4cd8"}}
	for name, tc := range map[string]struct {
		second repReport
		code   int
	}{"good": {good, 0}, "operation failed": {failed, 1}, "fingerprint diverged": {diverged, 1}} {
		c := newCollector(io.Discard)
		c.add(modePlain, good)
		c.add(modePlain, tc.second)
		c.res.Metrics = map[string]float64{}
		var stdout bytes.Buffer
		if code := report(&stdout, io.Discard, w, false, c.res); code != tc.code {
			t.Errorf("%s: exit %d, want %d", name, code, tc.code)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var out output
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil || out.Correct != (tc.code == 0) {
			t.Errorf("%s: result line %q", name, lines[len(lines)-1])
		}
	}
}
