package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistryStateRoundTrip pins the snapshot/restore contract the crash
// recovery path depends on: a registry restored from another's State
// renders byte-identical text, and restoring in place keeps previously
// handed-out metric instances live.
func TestRegistryStateRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("serve.samples")
	c.Add(7)
	r.Gauge("serve.objective").Set(1.25)
	h := r.Histogram("serve.drift", 0.1, 0.5)
	h.Observe(0.05)
	h.Observe(0.3)
	h.Observe(2.0)

	st := r.State()

	fresh := NewRegistry()
	if err := fresh.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := fresh.Text(), r.Text(); got != want {
		t.Fatalf("restored text:\n%s\nwant:\n%s", got, want)
	}

	// In-place restore: the counter handle held before Restore must read
	// the restored value, and keep counting from there.
	live := NewRegistry()
	held := live.Counter("serve.samples")
	held.Inc()
	if err := live.Restore(st); err != nil {
		t.Fatalf("Restore in place: %v", err)
	}
	if held.Value() != 7 {
		t.Fatalf("held counter reads %d after restore, want 7", held.Value())
	}
	held.Inc()
	if live.Counter("serve.samples").Value() != 8 {
		t.Fatalf("counter identity broken after restore")
	}
}

func TestRegistryRestoreRejectsBadState(t *testing.T) {
	r := NewRegistry()
	if err := r.Restore(RegistryState{Counters: map[string]int64{"x": -1}}); err == nil {
		t.Fatal("negative counter accepted")
	}
	if err := r.Restore(RegistryState{Histograms: map[string]HistogramState{
		"h": {Bounds: []float64{1}, Counts: []int64{1}},
	}}); err == nil {
		t.Fatal("histogram with too few counts accepted")
	}
	r.Histogram("h2", 1, 2)
	if err := r.Restore(RegistryState{Histograms: map[string]HistogramState{
		"h2": {Bounds: []float64{1, 3}, Counts: []int64{0, 0, 0}},
	}}); err == nil {
		t.Fatal("histogram bound mismatch accepted")
	}
}

func TestJournalReset(t *testing.T) {
	var j Journal
	j.Record(Event{Time: 1, Kind: "full-replan"})
	j.Record(Event{Time: 2, Kind: "no-change"})
	snap := j.Events()
	j.Record(Event{Time: 3, Kind: "deferred-interval"})
	j.Reset(snap)
	if j.Len() != 2 {
		t.Fatalf("after Reset Len=%d, want 2", j.Len())
	}
	if !strings.Contains(j.String(), "full-replan") || strings.Contains(j.String(), "deferred") {
		t.Fatalf("Reset kept wrong events:\n%s", j.String())
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("one"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	if err := WriteFileAtomic(path, []byte("two"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic overwrite: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "two" {
		t.Fatalf("read %q, want %q", data, "two")
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after atomic writes, want 1", len(entries))
	}
}

func TestSampleSourceRoundTrips(t *testing.T) {
	in := []Sample{
		{Time: 0, Uplinks: []float64{1e6}, Source: "agent-3"},
		{Time: 5, Uplinks: []float64{2e6}},
	}
	out, err := DecodeTrace(strings.NewReader(traceText(in)))
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	if out[0].Source != "agent-3" || out[1].Source != "" {
		t.Fatalf("sources did not round-trip: %+v", out)
	}
}
