package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Sample is one timestamped telemetry observation of the cluster: per-server
// uplink rates and/or a per-server reachability probe. It is the unit the
// control plane ingests and the unit a recorded trace and the serve WAL
// store, both through sampleJSON.
type Sample struct {
	// Time is the observation's virtual timestamp in seconds.
	Time float64
	// Uplinks holds the observed per-server uplink rates in bits/second.
	// An entry <= 0 means "no observation for that server this sample";
	// nil or empty means no uplink telemetry at all.
	Uplinks []float64
	// Health holds the per-server reachability probe (compute and uplink
	// both up); nil or empty means no probe this sample.
	Health []bool
	// Source names the process or sensor that produced the sample; the
	// control plane's quarantine tracks validation failures per source.
	// Empty is a valid (anonymous) source.
	Source string
}

// sampleJSON is a Sample's one JSON form. Unknown fields are refused.
// omitempty drops empty observation slices, so they decode as nil.
type sampleJSON struct {
	Time    jsonFloat   `json:"t"`
	Uplinks []jsonFloat `json:"uplinks,omitempty"`
	Health  []bool      `json:"health,omitempty"`
	Source  string      `json:"src,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (s Sample) MarshalJSON() ([]byte, error) {
	w := sampleJSON{Time: jsonFloat(s.Time), Health: s.Health, Source: s.Source}
	for _, v := range s.Uplinks {
		w.Uplinks = append(w.Uplinks, jsonFloat(v))
	}
	return json.Marshal(&w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Sample) UnmarshalJSON(data []byte) error {
	var w sampleJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	*s = Sample{Time: float64(w.Time), Source: w.Source}
	for _, v := range w.Uplinks {
		s.Uplinks = append(s.Uplinks, float64(v))
	}
	if len(w.Health) > 0 {
		s.Health = w.Health
	}
	return nil
}

// jsonFloat encodes a finite float64 exactly as encoding/json does, and
// NaN, +Inf and -Inf, which a JSON number cannot hold, as the strings
// "NaN", "+Inf" and "-Inf": the WAL records malformed samples too, and a
// NaN timestamp is exactly what the quarantine strikes on.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if v := float64(f); math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(v, 'g', -1, 64)), nil
	}
	return json.Marshal(float64(f))
}

func (f *jsonFloat) UnmarshalJSON(data []byte) error {
	if len(data) == 0 || data[0] != '"' {
		return json.Unmarshal(data, (*float64)(f))
	}
	v, err := strconv.ParseFloat(strings.Trim(string(data), `"`), 64)
	if err != nil || !(math.IsNaN(v) || math.IsInf(v, 0)) {
		return fmt.Errorf("telemetry: float string %s is not NaN, +Inf or -Inf", data)
	}
	*f = jsonFloat(v)
	return nil
}

// EncodeTrace writes samples as JSON lines (one sample per line), the
// on-disk trace format cmd/edgeserved records and replays.
func EncodeTrace(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range samples {
		if err := enc.Encode(&samples[i]); err != nil {
			return fmt.Errorf("telemetry: encoding sample %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// DecodeTrace parses a JSON-lines trace, validating structure as it goes:
// every line must be a well-formed sample, timestamps must be finite,
// non-negative and non-decreasing, uplink observations must be finite, and
// all samples must agree on the number of servers they observe. Blank lines
// are skipped. The error names the offending line so a corrupt trace is
// diagnosable from the message alone.
func DecodeTrace(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var samples []Sample
	prev := math.Inf(-1)
	width := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var s Sample
		dec := json.NewDecoder(strings.NewReader(text))
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		// A second JSON value on one line is a framing error, not a sample.
		if dec.More() {
			return nil, fmt.Errorf("telemetry: trace line %d: trailing data after sample", line)
		}
		if math.IsNaN(s.Time) || math.IsInf(s.Time, 0) || s.Time < 0 {
			return nil, fmt.Errorf("telemetry: trace line %d: time %g is not a non-negative finite number", line, s.Time)
		}
		if len(samples) > 0 && s.Time < prev {
			return nil, fmt.Errorf("telemetry: trace line %d: time %g precedes previous sample at %g", line, s.Time, prev)
		}
		for i, v := range s.Uplinks {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("telemetry: trace line %d: uplink %d rate %g is not finite", line, i, v)
			}
		}
		w := observedWidth(&s)
		if w >= 0 {
			if width >= 0 && w != width {
				return nil, fmt.Errorf("telemetry: trace line %d: sample observes %d servers, earlier samples observed %d", line, w, width)
			}
			width = w
		}
		if len(s.Uplinks) > 0 && len(s.Health) > 0 && len(s.Uplinks) != len(s.Health) {
			return nil, fmt.Errorf("telemetry: trace line %d: %d uplink rates vs %d health states", line, len(s.Uplinks), len(s.Health))
		}
		prev = s.Time
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading trace: %w", err)
	}
	return samples, nil
}

// observedWidth returns the number of servers a sample observes, or -1 when
// it observes none.
func observedWidth(s *Sample) int {
	if len(s.Uplinks) > 0 {
		return len(s.Uplinks)
	}
	if len(s.Health) > 0 {
		return len(s.Health)
	}
	return -1
}
