package main

import (
	"io"
	"math"
	"path/filepath"
	"testing"
)

// The reported tail is the highest percentile with at least ten samples
// beyond it; below twenty samples there is none and the median stands in.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {5, 50}, {19, 50}, {20, 50},
		{99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99}, {661747, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	values := make([]float64, 1000)
	for i := range values {
		values[i] = float64(i + 1)
	}
	s := summarize(values)
	if s.N != 1000 || s.P50 != 500 || s.TailPct != 99 || s.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v, want n=1000 p50=500 p99=990", s)
	}
	if beyond := s.N - int(s.Tail); beyond != minBeyond {
		t.Errorf("%d samples beyond the reported tail, want %d", beyond, minBeyond)
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which the acceptance driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5}, // two values extrapolate, as Python does
		{[]float64{3, 3, 3, 3}, 3, 3},
	} {
		q1, q3 := quartiles(tc.values)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.values, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestVerdictAppliesBoundAndSpread(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{100, 140, 80, 120, 60}
	for _, tc := range []struct {
		name       string
		def        metricDef
		base, cand []float64
		want       string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower within the bound", lower, steady, []float64{108, 109, 107, 108, 108}, "ok"},
		{"slower past the bound", lower, steady, []float64{112, 113, 111, 112, 112}, "REGRESSED"},
		{"lower rate past the bound", higher, steady, []float64{88, 89, 87, 88, 88}, "REGRESSED"},
		{"higher rate is not a regression", higher, steady, []float64{130, 131, 129, 130, 132}, "ok"},
		{"parent too noisy to tell", lower, noisy, []float64{100, 100, 100, 100, 100}, "unresolved"},
		{"noisy parent, every run better", lower, noisy, []float64{50, 51, 52, 50, 49}, "better"},
		{"a parent that reads 0 is no baseline", lower, []float64{0, 0, 0}, steady, "NO BASELINE"},
	} {
		if got, _ := verdict(tc.def, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// A partial or crashed candidate file must not compare as a pass.
func TestCompareFailsOnMissingRunsAndMetrics(t *testing.T) {
	full := map[string]metricValue{}
	for _, def := range endToEnd {
		full[def.Name] = metricValue{Value: 100, Unit: def.Unit}
	}
	partial := map[string]metricValue{"rps": full["rps"]}
	write := func(name string, runs ...runReport) string {
		path := filepath.Join(t.TempDir(), name)
		for i := range runs {
			runs[i].Correct, runs[i].Attempted, runs[i].Host.NProc = true, 10, 2
			if err := appendJSONLine(path, &runs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", runReport{Workload: "plane_local", Metrics: full}, runReport{Workload: "plan_cold", Metrics: full})
	for _, tc := range []struct {
		name string
		b    string
		want int
	}{
		{"same runs", a, 0},
		{"a workload of A has no runs in B", write("b1.jsonl", runReport{Workload: "plane_local", Metrics: full}), 1},
		{"a run of B lacks a metric", write("b2.jsonl", runReport{Workload: "plane_local", Metrics: partial}, runReport{Workload: "plan_cold", Metrics: full}), 1},
	} {
		if got := compareFiles(io.Discard, a, tc.b); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}
