package campaign

import (
	"bytes"
	"strings"
	"testing"

	"resilientos"
	"resilientos/internal/fi"
	"resilientos/internal/obs/decision"
)

func TestSeq(t *testing.T) {
	s := Seq(3)
	if len(s) != 3 || s[0] != 1 || s[2] != 3 {
		t.Fatalf("Seq(3) = %v", s)
	}
}

func TestCellsCanonicalOrder(t *testing.T) {
	cfg := Config{
		Seeds:      []int64{1, 2},
		Victims:    []string{"a", "b"},
		FaultTypes: []fi.FaultType{fi.FaultBitFlip, fi.FaultElide},
	}
	cells := Cells(cfg)
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	// Seed-major, then victim, then fault type; Index matches position.
	want := []Cell{
		{0, 1, "a", fi.FaultBitFlip}, {1, 1, "a", fi.FaultElide},
		{2, 1, "b", fi.FaultBitFlip}, {3, 1, "b", fi.FaultElide},
		{4, 2, "a", fi.FaultBitFlip}, {5, 2, "a", fi.FaultElide},
		{6, 2, "b", fi.FaultBitFlip}, {7, 2, "b", fi.FaultElide},
	}
	for i, c := range cells {
		if c != want[i] {
			t.Fatalf("cell %d = %+v, want %+v", i, c, want[i])
		}
	}
}

// testConfig is a small but real matrix: two seeds, one network victim,
// two fault types, three faults per cell.
func testConfig(workers int) Config {
	return Config{
		Seeds:         []int64{1, 2},
		Victims:       []string{resilientos.DriverDP8390},
		FaultTypes:    []fi.FaultType{fi.FaultBitFlip, fi.FaultPointer},
		FaultsPerCell: 3,
		Workers:       workers,
		Invariants:    true,
	}
}

// TestWorkersByteIdentical is the campaign's core determinism contract:
// the rendered report of a sharded run must be byte-identical no matter
// how many workers executed it.
func TestWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell campaign in -short mode")
	}
	var seq, par bytes.Buffer
	Run(testConfig(1)).Render(&seq)
	Run(testConfig(8)).Render(&par)
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("-workers=1 and -workers=8 reports differ:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			seq.String(), par.String())
	}
}

// TestCampaignHoldsInvariants runs a real injection campaign with the
// live checker attached to every scheduler step of every cell: the
// recovery architecture must hold every invariant while being shot at.
func TestCampaignHoldsInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	cfg := Config{
		Seeds:         []int64{7},
		Victims:       []string{resilientos.DriverDP8390},
		FaultTypes:    []fi.FaultType{fi.FaultBitFlip},
		FaultsPerCell: 5,
		Workers:       2,
		Invariants:    true,
	}
	rep := Run(cfg)
	if !rep.Ok() {
		var b bytes.Buffer
		rep.Render(&b)
		t.Fatalf("campaign surfaced invariant violations:\n%s", b.String())
	}
	if rep.Injected == 0 {
		t.Fatal("campaign injected nothing")
	}
}

func TestRenderLayout(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	cfg := Config{
		Seeds:         []int64{3},
		Victims:       []string{resilientos.DriverDP8390},
		FaultTypes:    []fi.FaultType{fi.FaultElide},
		FaultsPerCell: 3,
		Invariants:    true,
	}
	var b bytes.Buffer
	Run(cfg).Render(&b)
	out := b.String()
	for _, want := range []string{
		"SWIFI campaign:", "fault type", "injected", "recovered",
		"recovery latency, elided-instruction:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestProgressSerialized(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	cfg := testConfig(4)
	cfg.Invariants = false
	var calls []int
	cfg.Progress = func(done, total int) {
		calls = append(calls, done)
		if total != 4 {
			t.Errorf("total = %d, want 4", total)
		}
	}
	Run(cfg)
	if len(calls) != 4 || calls[len(calls)-1] != 4 {
		t.Fatalf("progress calls = %v", calls)
	}
}

// TestDecisionLogWorkerIndependent extends the determinism contract to
// the merged decision trace: the encoded log (including cell-boundary
// marks) must be byte-identical for any worker count, well-formed under
// the offline verifier, and carry a sane availability figure.
func TestDecisionLogWorkerIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell campaign in -short mode")
	}
	cfg := testConfig(1)
	cfg.Decisions = true
	seq := Run(cfg)
	cfg = testConfig(8)
	cfg.Decisions = true
	par := Run(cfg)

	a, b := decision.Encode(seq.DecisionLog), decision.Encode(par.DecisionLog)
	if !bytes.Equal(a, b) {
		t.Fatalf("-workers=1 and -workers=8 decision logs differ (%d vs %d bytes)", len(a), len(b))
	}
	if len(seq.DecisionLog) == 0 {
		t.Fatal("campaign with Decisions produced an empty log")
	}
	if problems := decision.Check(seq.DecisionLog); len(problems) != 0 {
		t.Fatalf("merged decision log ill-formed: %v", problems)
	}
	// Cell-boundary marks: one per cell, in canonical order.
	var marks []string
	for _, e := range seq.DecisionLog {
		if e.Kind == decision.KindMark {
			marks = append(marks, e.Detail)
		}
	}
	cells := Cells(cfg)
	if len(marks) != len(cells) {
		t.Fatalf("got %d cell marks, want %d", len(marks), len(cells))
	}
	for i, c := range cells {
		if marks[i] != c.String() {
			t.Fatalf("mark %d = %q, want %q", i, marks[i], c.String())
		}
	}
	if seq.Horizon <= 0 {
		t.Fatal("no measurement horizon")
	}
	av := seq.Availability()
	if av <= 0 || av > 100 {
		t.Fatalf("availability = %v", av)
	}
	// Direct restarts complete in the same virtual instant as detection,
	// so downtime can be zero even with crashes; it must never be
	// negative or exceed the horizon.
	if seq.Downtime < 0 || seq.Downtime > seq.Horizon {
		t.Fatalf("downtime %v outside [0, %v]", seq.Downtime, seq.Horizon)
	}
}

// TestCampaignKnobsChangeBehavior: the counterfactual knobs must be
// plumbed through to the per-cell system — a capped restart budget shows
// up as give-ups in the report and in the decision trace.
func TestCampaignKnobsChangeBehavior(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	// Seed 1 crashes the driver twice in this cell, so the second crash
	// exhausts MaxRestarts=1. Seed 7 crashed only once and left the
	// give-up path unexercised.
	cfg := Config{
		Seeds:         []int64{1},
		Victims:       []string{resilientos.DriverDP8390},
		FaultTypes:    []fi.FaultType{fi.FaultBitFlip},
		FaultsPerCell: 8,
		MaxRestarts:   1,
		Decisions:     true,
	}
	rep := Run(cfg)
	if rep.Crashes < 2 {
		t.Fatalf("seed produced only %d crashes; the cell no longer exercises the restart budget", rep.Crashes)
	}
	if rep.GaveUp == 0 {
		t.Fatal("MaxRestarts=1 produced no give-ups")
	}
	gaveUp := 0
	for _, e := range rep.DecisionLog {
		if e.Kind == decision.KindOutcome && e.Action == "gave-up" {
			gaveUp++
		}
	}
	if gaveUp != rep.GaveUp {
		t.Fatalf("decision trace has %d gave-up outcomes, report says %d", gaveUp, rep.GaveUp)
	}
}
