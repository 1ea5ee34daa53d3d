package serve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"edgesurgeon/internal/telemetry"
)

var updateLayout = flag.Bool("update", false, "rewrite testdata/snapshot_v2.json from this build's encoder")

// layoutFile pins the version-2 snapshot layout: field names, field order and
// which fields are omitted when empty. A store written by an older build of
// the same version must keep opening, so the encoding may not drift.
const layoutFile = "testdata/snapshot_v2.json"

// seedSnapshot sets every field of the snapshot, so its encoding pins each
// one's name and place. FuzzSnapshotDecode starts from it too.
func seedSnapshot() *Snapshot {
	return &Snapshot{
		state: state{
			Seq: 7, Samples: 9, Clock: 12.5, Rates: []float64{2e6, 3e6}, PlanRates: []float64{2e6, 3e6},
			Down: []bool{false, true}, LastFull: 10, LastAbort: 11, FullTimes: []float64{10}, Throttle: 0.5,
			Sources: map[string]SourceState{"s": {Strikes: 1, Until: 40}},
		},
		Journal: []telemetry.Event{{Time: 0, Kind: EventInitialPlan, Value: 1}},
	}
}

// TestSnapshotLayoutV2 encodes the seed snapshot and the snapshot a stored
// hysteresis replay of the fixture trace leaves behind, and holds the bytes
// to the pinned file; each pinned snapshot must also decode and re-encode to
// itself.
func TestSnapshotLayoutV2(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The replay's plan objectives and metrics are float bits recorded
		// on amd64.
		t.Skip("snapshot layout is recorded on amd64")
	}
	seed, err := EncodeSnapshot(seedSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Scenario: fadingScenario(t), Policy: Hysteresis(), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range recordReplayTrace(t) {
		if _, err := rt.Ingest(s); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
	}
	if rt.FullReplans() == 0 {
		t.Fatal("fixture is vacuous: the stored snapshot is the construction-time one")
	}
	rt.Close()
	stored, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := append(seed, stored...)
	if *updateLayout {
		if err := os.WriteFile(layoutFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(layoutFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot encoding drifted from %s:\n--- pinned ---\n%s--- encoded ---\n%s", layoutFile, want, got)
	}
	for i, line := range bytes.SplitAfter(bytes.TrimSuffix(want, []byte("\n")), []byte("\n")) {
		snap, err := DecodeSnapshot(line)
		if err != nil {
			t.Fatalf("pinned snapshot %d: %v", i, err)
		}
		again, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytes.TrimSuffix(again, []byte("\n")), bytes.TrimSuffix(line, []byte("\n"))) {
			t.Fatalf("pinned snapshot %d does not round-trip:\n%s\n%s", i, line, again)
		}
	}
}
