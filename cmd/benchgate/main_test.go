package main

import (
	"path/filepath"
	"testing"

	"resilientos/internal/bench"
	"resilientos/internal/bench/compare"
)

// -h is documentation, not an error: it must exit 0, unlike bad flags
// (exit 2) or a tripped gate (exit 1).
func TestHelp(t *testing.T) {
	code, err := run([]string{"-h"})
	if code != 0 || err != nil {
		t.Fatalf("run(-h) = (%d, %v), want (0, nil)", code, err)
	}
	if code, _ := run([]string{"-no-such-flag"}); code != 2 {
		t.Fatalf("run(bad flag) exit = %d, want 2", code)
	}
}

// fleetEntry builds a history entry holding only a fleet document,
// tweaked by mutate.
func fleetEntry(label string, mutate func(*bench.Fleet)) compare.Entry {
	doc := &bench.Fleet{
		Schema: bench.SchemaFleet, Nodes: 4, Seed: 11,
		Policy:          "failure-aware",
		Storm:           "correlated:eth.rtl8139,k=2,every=1s,mode=kill",
		AvailabilityPct: 97.92, NodeAvailabilityPct: 100, RecoveredPct: 100,
		Latency:            bench.LatencyMs{Count: 500, P50Ms: 4.5, P99Ms: 13.47},
		MaxRecoveryOverlap: 2,
	}
	if mutate != nil {
		mutate(doc)
	}
	return compare.Entry{Label: label, Fleet: doc}
}

// The fleet schema end to end through the gate binary: identical
// entries pass (exit 0), an 11% availability drop fails (exit 1),
// -warn-only overrides the failure (exit 0), and an improvement in
// both directions — availability up, p99 down — passes (exit 0).
func TestFleetAvailabilityDropExitCodes(t *testing.T) {
	gate := func(t *testing.T, mutate func(*bench.Fleet), extra ...string) int {
		t.Helper()
		hist := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
		if err := compare.AppendHistory(hist, fleetEntry("old", nil)); err != nil {
			t.Fatal(err)
		}
		if err := compare.AppendHistory(hist, fleetEntry("new", mutate)); err != nil {
			t.Fatal(err)
		}
		code, _ := run(append([]string{"-history", hist}, extra...))
		return code
	}
	drop := func(d *bench.Fleet) { d.AvailabilityPct *= 0.89 }

	if code := gate(t, nil); code != 0 {
		t.Fatalf("identical entries: exit %d, want 0", code)
	}
	if code := gate(t, drop); code != 1 {
		t.Fatalf("11%% availability drop: exit %d, want 1", code)
	}
	if code := gate(t, drop, "-warn-only"); code != 0 {
		t.Fatalf("-warn-only did not override the failure: exit %d, want 0", code)
	}
	if code := gate(t, func(d *bench.Fleet) {
		d.AvailabilityPct = 100 // higher-better, up
		d.Latency.P99Ms /= 2    // lower-better, down
	}); code != 0 {
		t.Fatalf("improvement: exit %d, want 0", code)
	}
}
