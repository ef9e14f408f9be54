package compare

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"resilientos/internal/bench"
)

// encodeHistory renders entries the way AppendHistory writes them: one
// JSON line each.
func encodeHistory(t *testing.T, h []Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range h {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("re-marshal of accepted entry failed: %v", err)
		}
		buf.Write(append(b, '\n'))
	}
	return buf.Bytes()
}

// FuzzReadHistory holds the line on the loader benchgate trusts with
// the CI-cached trajectory: ReadHistory never panics, every history it
// accepts re-marshals and re-parses to the same entries, and Diff over
// any two accepted entries never panics. Equality is judged on the
// re-marshaled bytes: JSON cannot tell an empty figure list from an
// absent one, so the parsed structs may differ in nil-vs-empty only.
func FuzzReadHistory(f *testing.F) {
	base := baseEntry("seed")
	recovery := &bench.Recovery{
		Schema: bench.SchemaRecovery, Fig: 7, Seed: 11,
		Mechanisms: []bench.RecoveryMechanism{{
			Mechanism: "respawn", OK: true, MBps: 8.4,
			MeanDipDepth: 30.2, MeanDipWidthMs: 1000, RecoveredPct: 100,
		}},
		StandbyDepthGainPct: 27.8, MicroWidthGainMs: 967,
	}
	for _, e := range []Entry{
		{Label: "throughput", Throughput: base.Throughput},
		{Label: "campaign", Campaign: base.Campaign},
		{Label: "figure", Figures: base.Figures},
		{Label: "fleet", Fleet: base.Fleet},
		{Label: "decisions", Decisions: base.Decisions},
		{Label: "recovery", Recovery: recovery},
	} {
		b, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(b, '\n'))
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "history_legacy.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add([]byte(""))
	f.Add([]byte("\n\nnull\n{}\n"))
	f.Add([]byte(`{"figures":[],"fleet":{"classes":[{"class":"net","slo":{}}]}}` + "\n"))
	f.Add([]byte(`{"campaign":{"recovery_rate_pct":0}}` + "\n" + `{"campaign":{"recovery_rate_pct":-1e308}}`))
	f.Add([]byte(`{"throughput":{"points":[{"mbps":"fast"}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHistory(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc := encodeHistory(t, h)
		h2, err := ReadHistory(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-parse of re-marshaled history failed: %v", err)
		}
		if len(h2) != len(h) {
			t.Fatalf("re-parse yielded %d entries, want %d", len(h2), len(h))
		}
		if enc2 := encodeHistory(t, h2); !bytes.Equal(enc, enc2) {
			t.Fatalf("accepted history did not round-trip:\n%s\n---\n%s", enc, enc2)
		}
		if len(h) > 8 {
			h = h[:8]
		}
		for _, a := range h {
			for _, b := range h {
				Diff(a, b, DefaultThresholds).WriteText(io.Discard)
			}
		}
	})
}
