package obs

import (
	"bytes"
	"reflect"
	"testing"
)

func encodeTrace(events []Event) []byte {
	var dst []byte
	for _, e := range events {
		dst = AppendJSONL(dst, e)
	}
	return dst
}

// FuzzParseJSONL holds two properties of the trace parser, which
// cmd/tracestat feeds with external files: it never panics on arbitrary
// input, and anything it accepts re-encodes canonically and re-parses to
// the same events.
func FuzzParseJSONL(f *testing.F) {
	f.Add([]byte(""))
	f.Add(encodeTrace([]Event{
		{T: 0, Kind: KindMark, Comp: "run", Aux: "fig7"},
		{T: 1500000, Kind: KindDefect, Comp: "eth.rtl8139", Aux: "killed", V1: 1, V2: 3},
		{T: 1600000, Kind: KindSpanBegin, Comp: "inet", Aux: `read "x"`, Trace: 2, Span: 5, Parent: 4},
	}))
	f.Add([]byte(`{"t":-5,"kind":"span.link","comp":"","aux":"é","v1":0,"v2":0,"tr":1,"sp":2,"pa":0}` + "\n"))
	f.Add([]byte(`{"t":0,"kind":"","comp":"","aux":"","v1":0,"v2":0}` + "\n"))
	f.Add([]byte("{\"t\":1\nnot json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc := encodeTrace(events)
		again, err := ParseJSONL(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("canonical re-encoding failed to parse: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("re-parse changed the events:\n%+v\nvs\n%+v", events, again)
		}
		if !bytes.Equal(encodeTrace(again), enc) {
			t.Fatalf("canonical encoding is not a fixed point:\n%s\nvs\n%s", enc, encodeTrace(again))
		}
	})
}
