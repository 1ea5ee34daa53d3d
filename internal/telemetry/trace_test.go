package telemetry

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// traceText renders a trace to its canonical JSONL text through
// EncodeTrace.
func traceText(samples []Sample) string {
	var b strings.Builder
	if err := EncodeTrace(&b, samples); err != nil {
		panic(err)
	}
	return b.String()
}

func sampleTrace() []Sample {
	return []Sample{
		{Time: 0, Uplinks: []float64{40e6, 25e6}, Health: []bool{true, true}},
		{Time: 5, Uplinks: []float64{38e6, 0}},
		{Time: 10, Health: []bool{false, true}},
		{Time: 10}, // repeated timestamps and empty samples are legal
		{Time: 15.5, Uplinks: []float64{41e6, 26e6}, Health: []bool{true, true}},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := sampleTrace()
	text := traceText(tr)
	got, err := DecodeTrace(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip changed trace:\n%v\nvs\n%v", got, tr)
	}
	// Canonical text is stable under a second round trip.
	if again := traceText(got); again != text {
		t.Fatalf("re-encode differs:\n%s\nvs\n%s", again, text)
	}
}

// TestSampleJSONFloats pins the one Sample codec: a finite float is written
// exactly as encoding/json writes a bare float64 (so traces are unchanged),
// NaN and ±Inf become strings, and every value, -0 included, decodes back
// to the same bits.
func TestSampleJSONFloats(t *testing.T) {
	type plain struct {
		Time    float64   `json:"t"`
		Uplinks []float64 `json:"uplinks,omitempty"`
		Health  []bool    `json:"health,omitempty"`
		Source  string    `json:"src,omitempty"`
	}
	rng := rand.New(rand.NewSource(1))
	vals := []float64{0, math.Copysign(0, -1), 1, -3, 1e-7, 1e-6, 1e20, 1e21, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i := 0; i < 200; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		s := Sample{Time: v, Uplinks: []float64{v, -v}, Health: []bool{true}, Source: "<s&>"}
		got, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(plain{s.Time, s.Uplinks, s.Health, s.Source})
		if string(got) != string(want) {
			t.Fatalf("%v: encoded %s, encoding/json writes %s", v, got, want)
		}
	}
	special := Sample{Time: math.NaN(), Uplinks: []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}}
	text, err := json.Marshal(special)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"t":"NaN","uplinks":["+Inf","-Inf",-0]}`; string(text) != want {
		t.Fatalf("encoded %s, want %s", text, want)
	}
	var back Sample
	if err := json.Unmarshal(text, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.Time) || !math.IsInf(back.Uplinks[0], 1) || !math.IsInf(back.Uplinks[1], -1) || !math.Signbit(back.Uplinks[2]) {
		t.Fatalf("decoded %+v", back)
	}
	for _, bad := range []string{`{"t":"1"}`, `{"t":"x"}`, `{"t":1,"bogus":2}`} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

func TestDecodeTraceSkipsBlankLines(t *testing.T) {
	text := "\n" + `{"t":1}` + "\n\n" + `{"t":2}` + "\n"
	got, err := DecodeTrace(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Time != 1 || got[1].Time != 2 {
		t.Fatalf("decoded %v", got)
	}
}

func TestDecodeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad json":          `{"t":`,
		"unknown field":     `{"t":1,"bogus":2}`,
		"trailing data":     `{"t":1} {"t":2}`,
		"negative time":     `{"t":-1}`,
		"time regression":   `{"t":5}` + "\n" + `{"t":4}`,
		"width change":      `{"t":1,"uplinks":[1,2]}` + "\n" + `{"t":2,"uplinks":[1]}`,
		"uplink vs health":  `{"t":1,"uplinks":[1,2],"health":[true]}`,
		"non-number uplink": `{"t":1,"uplinks":["x"]}`,
		"nan time":          `{"t":"NaN"}`,
		"inf uplink":        `{"t":1,"uplinks":["+Inf",1]}`,
	}
	for name, text := range cases {
		if _, err := DecodeTrace(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

func FuzzTraceDecode(f *testing.F) {
	f.Add(traceText(sampleTrace()))
	f.Add(`{"t":1,"uplinks":[1e6,2e6]}`)
	f.Add(`{"t":0,"health":[true,false]}`)
	f.Add(`{"t":-0}`)
	f.Add("not json at all")
	f.Add(`{"t":1e309}`)
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := DecodeTrace(strings.NewReader(text))
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to a canonical form that decodes
		// back to exactly the same trace.
		canon := traceText(tr)
		again, err := DecodeTrace(strings.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("round trip changed trace:\n%v\nvs\n%v", again, tr)
		}
	})
}
