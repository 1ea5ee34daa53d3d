package serve

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/telemetry"
)

// chaosTrace is the harsher fixture for the crash tests: the replay trace
// with a burst of malformed samples from one named source (enough
// consecutive strikes to trip quarantine, then more that are dropped
// muted) and a sample of empty slices spliced in, so the recovery
// invariant covers rejection, strike and quarantine state too.
func chaosTrace(t testing.TB) []telemetry.Sample {
	t.Helper()
	base := recordReplayTrace(t)
	var out []telemetry.Sample
	for i, s := range base {
		out = append(out, s)
		if i == 3 {
			for j := 0; j < 4; j++ {
				out = append(out, telemetry.Sample{
					Time: s.Time, Uplinks: []float64{-1, 0}, Source: "sensor-7",
				})
			}
		}
		if i == 5 {
			// Dropped while muted (probation has not elapsed yet).
			out = append(out, telemetry.Sample{Time: s.Time, Uplinks: []float64{math.NaN(), 0}, Source: "sensor-7"})
		}
		if i == 6 {
			// Empty slices, which the WAL records as absent: no observation.
			out = append(out, telemetry.Sample{Time: s.Time, Uplinks: []float64{}, Health: []bool{}})
		}
	}
	return out
}

// chaosPolicy arms every robustness feature at once.
func chaosPolicy() Policy {
	return Policy{
		RelChange: 0.2, MinInterval: 10, Budget: 4, Window: 60,
		ReplanDeadline: 2, QuarantineStrikes: 3, QuarantineProbation: 30,
	}
}

// ingestAll feeds samples through rt, appending each published plan to
// plans. Rejections and quarantine errors are expected history, not test
// failures; hard internal errors still fail. Rejection lines are keyed by
// sample time + source (not slice index) so a run split by a crash
// concatenates to the same transcript as an uninterrupted one.
func ingestAll(t testing.TB, rt *Runtime, samples []telemetry.Sample, plans *strings.Builder) {
	t.Helper()
	for i := range samples {
		plan, err := rt.Ingest(samples[i])
		if err != nil {
			var bad *joint.BadObservationError
			var q *QuarantineError
			if !errors.As(err, &bad) && !errors.As(err, &q) {
				t.Fatalf("sample %d: %v", i, err)
			}
			fmt.Fprintf(plans, "rejected: t=%g src=%q\n", samples[i].Time, samples[i].Source)
			continue
		}
		fmt.Fprintf(plans, "t=%g\n%s", samples[i].Time, encodePlan(plan))
	}
}

// runStored runs the whole trace in one uninterrupted process backed by a
// store, returning the three byte-comparable artifacts.
func runStored(t testing.TB, dir string, trace []telemetry.Sample, policy Policy, frontier bool) (plans, journal, metrics string) {
	t.Helper()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Scenario: fadingScenario(t),
		Planner:  &joint.Planner{},
		Policy:   policy,
		Store:    store,
		Frontier: frontier,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var b strings.Builder
	b.WriteString(encodePlan(rt.Current()))
	ingestAll(t, rt, trace, &b)
	return b.String(), rt.Journal().String(), rt.Metrics().Text()
}

// runKilled ingests k samples, abandons the process (Close = the handle is
// gone; everything else is whatever made it to disk), recovers a second
// runtime from the directory, and continues with the rest of the trace.
func runKilled(t testing.TB, dir string, trace []telemetry.Sample, policy Policy, frontier bool, k int) (plans, journal, metrics string) {
	t.Helper()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Scenario: fadingScenario(t),
		Planner:  &joint.Planner{},
		Policy:   policy,
		Store:    store,
		Frontier: frontier,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(encodePlan(rt.Current()))
	ingestAll(t, rt, trace[:k], &b)
	wantCurrent := encodePlan(rt.Current())
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = fadingScenario(t) // a fresh process parses its own config
	cfg.Planner = &joint.Planner{}
	cfg.Store = store2
	rt2, err := Recover(cfg)
	if err != nil {
		t.Fatalf("recover after %d samples: %v", k, err)
	}
	defer rt2.Close()
	if got := encodePlan(rt2.Current()); got != wantCurrent {
		t.Fatalf("recovered plan after %d samples diverged:\n--- lost ---\n%s\n--- recovered ---\n%s", k, wantCurrent, got)
	}
	if got, want := rt2.Seq(), uint64(k); got != want {
		t.Fatalf("recovered seq = %d, want %d", got, want)
	}
	ingestAll(t, rt2, trace[k:], &b)
	return b.String(), rt2.Journal().String(), rt2.Metrics().Text()
}

// killArms are the configurations every kill-at-every-sample suite runs: the
// plain control plane, and one keeping frontier tables, whose hit/miss series
// depend on which plans filled the tables' cells before the kill.
var killArms = []struct {
	name     string
	frontier bool
}{{"plain", false}, {"frontier", true}}

// killAtEveryPoint kills the control plane after every sample of trace in
// turn, recovers from its snapshot + WAL and finishes the trace, and holds
// the plans, journal and metrics — compared raw — to the uninterrupted run's.
// The uninterrupted journal must contain every needle, or the check is
// vacuous.
func killAtEveryPoint(t *testing.T, trace []telemetry.Sample, policy Policy, frontier bool, needles ...string) {
	t.Helper()
	basePlans, baseJournal, baseMetrics := runStored(t, t.TempDir(), trace, policy, frontier)
	for _, needle := range needles {
		if !strings.Contains(baseJournal, needle) {
			t.Fatalf("fixture journal lacks %q:\n%s", needle, baseJournal)
		}
	}
	for k := 0; k <= len(trace); k++ {
		plans, journal, metrics := runKilled(t, t.TempDir(), trace, policy, frontier, k)
		if plans != basePlans {
			t.Fatalf("kill@%d: plan sequence diverged:\n--- baseline ---\n%s\n--- recovered ---\n%s", k, basePlans, plans)
		}
		if journal != baseJournal {
			t.Fatalf("kill@%d: journal diverged:\n--- baseline ---\n%s\n--- recovered ---\n%s", k, baseJournal, journal)
		}
		if metrics != baseMetrics {
			t.Fatalf("kill@%d: metrics diverged:\n--- baseline ---\n%s\n--- recovered ---\n%s", k, baseMetrics, metrics)
		}
	}
}

// TestKillRecoverEveryPoint is the tentpole invariant: killing the control
// plane after ANY ingested sample and recovering from its snapshot + WAL
// yields byte-identical plans, journal and metrics to the uninterrupted
// run — with deadline aborts, quarantine trips and muted drops in the
// stream, with and without frontier tables.
func TestKillRecoverEveryPoint(t *testing.T) {
	trace := chaosTrace(t)
	for _, arm := range killArms {
		t.Run(arm.name, func(t *testing.T) {
			killAtEveryPoint(t, trace, chaosPolicy(), arm.frontier, string(EventQuarantine), string(EventFullReplan))
		})
	}
}

// TestRecoverAfterSnapshotWALGap exercises the in-between crash window of
// WriteSnapshot: the full replan's snapshot was written but the process
// died before resetting the WAL, so the log still holds every entry the
// snapshot already folded. Recovery must skip them by Seq instead of
// double-applying.
func TestRecoverAfterSnapshotWALGap(t *testing.T) {
	trace := recordReplayTrace(t)
	policy := Hysteresis()
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scenario: fadingScenario(t), Policy: policy, Store: store}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Ingest until the first full replan: that ingest wrote a snapshot and
	// reset the WAL. Recreating the pre-reset WAL on disk is then exactly
	// the state a crash between the two steps leaves behind.
	fullAt := -1
	for i := range trace {
		if _, err := rt.Ingest(trace[i]); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if rt.FullReplans() > 0 {
			fullAt = i
			break
		}
	}
	if fullAt < 0 {
		t.Fatal("fixture is vacuous: the trace triggered no full replan")
	}
	var stale []WALEntry
	for m := 0; m <= fullAt; m++ {
		stale = append(stale, WALEntry{Seq: uint64(m + 1), Sample: &trace[m]})
	}
	if err := rt.store.ResetWAL(stale); err != nil {
		t.Fatal(err)
	}
	wantCurrent := encodePlan(rt.Current())
	wantJournal := rt.Journal().String()
	rt.Close()

	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store2
	rt2, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if got := encodePlan(rt2.Current()); got != wantCurrent {
		t.Fatalf("plan diverged after gap recovery:\n--- want ---\n%s\n--- got ---\n%s", wantCurrent, got)
	}
	if got := rt2.Journal().String(); got != wantJournal {
		t.Fatalf("journal diverged after gap recovery:\n--- want ---\n%s\n--- got ---\n%s", wantJournal, got)
	}
	if got, want := rt2.Seq(), uint64(fullAt+1); got != want {
		t.Fatalf("seq = %d, want %d", got, want)
	}
}

// TestRecoverRefusesWALWithoutSnapshot: the WAL holds only the entries
// after the last snapshot, so a store whose snapshot was lost cannot rebuild
// the run. Replaying the tail on a new runtime would resume at the wrong
// sample with a different history; Recover must refuse and name the tail.
func TestRecoverRefusesWALWithoutSnapshot(t *testing.T) {
	trace := recordReplayTrace(t)
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scenario: fadingScenario(t), Policy: Hysteresis(), Store: store}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rt.FullReplans() == 0 && n < len(trace) {
		if _, err := rt.Ingest(trace[n]); err != nil {
			t.Fatalf("sample %d: %v", n, err)
		}
		n++
	}
	if rt.FullReplans() == 0 || n+3 > len(trace) {
		t.Fatalf("fixture is vacuous: first full replan after %d of %d samples", n, len(trace))
	}
	var b strings.Builder
	ingestAll(t, rt, trace[n:n+3], &b)
	rt.Close()
	if err := os.Remove(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	cfg.Store = store2
	rt2, err := Recover(cfg)
	if err == nil {
		rt2.Close()
		t.Fatalf("recovered a store without its snapshot, resuming at sample %d (seq %d); want a refusal", rt2.st.Samples, rt2.Seq())
	}
	if !strings.Contains(err.Error(), "3 wal entries") {
		t.Fatalf("refusal %q does not name the 3 wal entries", err)
	}
}

// TestRecoverTornWALTail: a crash mid-append leaves a half-written final
// line; recovery drops exactly that entry and resumes from the previous
// one. Mid-file corruption, by contrast, is a hard error.
func TestRecoverTornWALTail(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scenario: fadingScenario(t), Policy: Hysteresis(), Store: store}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := recordReplayTrace(t)
	var b strings.Builder
	ingestAll(t, rt, trace[:3], &b)
	rt.Close()

	walPath := filepath.Join(dir, "wal.jsonl")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), data...), []byte(`{"seq":4,"sample":{"t":1`)...)
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store2
	rt2, err := Recover(cfg)
	if err != nil {
		t.Fatalf("torn tail must recover: %v", err)
	}
	if got, want := rt2.Seq(), uint64(3); got != want {
		t.Fatalf("seq = %d, want %d (torn entry dropped)", got, want)
	}
	rt2.Close()

	// Now corrupt the middle: same garbage, but with a valid entry after
	// it. That is not a torn tail and must refuse to load.
	data, err = os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) < 1 {
		t.Fatalf("unexpected wal shape:\n%s", data)
	}
	corrupt := lines[0] + "{bogus}\n" + `{"seq":9,"throttle":0.5}` + "\n"
	if err := os.WriteFile(walPath, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Store{dir: dir}).LoadWAL(); err == nil {
		t.Fatal("mid-file corruption must not load")
	}
}

// TestSnapshotRejectsForeignState: magic, version and structural damage
// all refuse to decode.
func TestSnapshotRejectsForeignState(t *testing.T) {
	snap := &Snapshot{
		state:   state{Clock: 1, Rates: []float64{1e6}, PlanRates: []float64{1e6}},
		Metrics: telemetry.RegistryState{},
	}
	data, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(data); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for name, mutate := range map[string]func(*Snapshot){
		"magic":      func(s *Snapshot) { s.Magic = "something-else" },
		"version":    func(s *Snapshot) { s.Version = 99 },
		"rate-shape": func(s *Snapshot) { s.PlanRates = nil },
		"neg-clock":  func(s *Snapshot) { s.Clock = -1 },
		"bad-rate":   func(s *Snapshot) { s.Rates[0] = -5; s.PlanRates = []float64{-5} },
		// Finite, but the planner's mean over its horizon overflows.
		"huge-rate":      func(s *Snapshot) { s.Rates[0] = 1.7e308 },
		"huge-plan-rate": func(s *Snapshot) { s.PlanRates[0] = 1.7e308 },
	} {
		bad := *snap
		bad.Rates = append([]float64(nil), snap.Rates...)
		bad.PlanRates = append([]float64(nil), snap.PlanRates...)
		mutate(&bad)
		raw, err := EncodeSnapshot(&bad)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		// EncodeSnapshot restamps magic/version; corrupt post-encode for
		// those two cases.
		text := string(raw)
		switch name {
		case "magic":
			text = strings.Replace(text, SnapshotMagic, "something-else", 1)
		case "version": // the format before the sample count
			text = strings.Replace(text, fmt.Sprintf(`"v":%d`, SnapshotVersion), `"v":1`, 1)
		}
		if _, err := DecodeSnapshot([]byte(text)); err == nil {
			t.Errorf("%s: corrupted snapshot decoded", name)
		}
	}
}

// TestWALEntryRoundTripsSpecialFloats: the WAL must faithfully record the
// malformed samples the quarantine exists to punish.
func TestWALEntryRoundTripsSpecialFloats(t *testing.T) {
	entries := []WALEntry{
		{Seq: 1, Sample: &telemetry.Sample{Time: math.NaN(), Uplinks: []float64{math.Inf(1), -3, math.Inf(-1), math.Copysign(0, -1)}, Source: "s"}},
		{Seq: 2, Sample: &telemetry.Sample{Time: 5, Health: []bool{true, false}}},
		{Seq: 3, Throttle: 0.25},
	}
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := store.AppendEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	got, err := store.LoadWAL()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	if up := got[0].Sample.Uplinks; !math.IsNaN(got[0].Sample.Time) || !math.IsInf(up[0], 1) || up[1] != -3 || !math.IsInf(up[2], -1) || up[3] != 0 || !math.Signbit(up[3]) {
		t.Fatalf("special floats mangled: %+v", got[0].Sample)
	}
	if got[0].Sample.Source != "s" || got[2].Throttle != 0.25 {
		t.Fatalf("fields mangled: %+v", got)
	}
}

// TestQuarantineLifecycle walks one source through strike, trip, muted
// drop, probation readmission, and a clean-slate reset on a valid sample.
func TestQuarantineLifecycle(t *testing.T) {
	rt, err := New(Config{Scenario: fadingScenario(t), Policy: chaosPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	bad := func(tm float64) telemetry.Sample {
		return telemetry.Sample{Time: tm, Uplinks: []float64{-1, 0}, Source: "flaky"}
	}
	good := func(tm float64) telemetry.Sample {
		return telemetry.Sample{Time: tm, Uplinks: []float64{0, 0}, Source: "flaky"}
	}
	// Two strikes, then a valid sample: the slate clears.
	for i := 0; i < 2; i++ {
		if _, err := rt.Ingest(bad(1)); err == nil {
			t.Fatal("invalid sample accepted")
		}
	}
	if _, err := rt.Ingest(good(2)); err != nil {
		t.Fatal(err)
	}
	if len(rt.st.Sources) != 0 {
		t.Fatalf("cleared standing kept in the quarantine table: %v", rt.st.Sources)
	}
	// Three consecutive strikes trip quarantine; the third returns the
	// typed error.
	for i := 0; i < 2; i++ {
		if _, err := rt.Ingest(bad(3)); err == nil {
			t.Fatal("invalid sample accepted")
		}
	}
	_, err = rt.Ingest(bad(3))
	var q *QuarantineError
	if !errors.As(err, &q) {
		t.Fatalf("third strike returned %v, want *QuarantineError", err)
	}
	if q.Source != "flaky" || q.Strikes != 3 || q.Until != 33 {
		t.Fatalf("quarantine error %+v, want flaky/3/until=33", q)
	}
	// While muted: even VALID samples from the source are dropped silently
	// and the current plan returned.
	plan, err := rt.Ingest(good(10))
	if err != nil || plan == nil {
		t.Fatalf("muted drop errored: %v", err)
	}
	if got := rt.Metrics().Counter("serve.quarantine.dropped").Value(); got != 1 {
		t.Fatalf("dropped counter = %d, want 1", got)
	}
	// Other sources are unaffected.
	if _, err := rt.Ingest(telemetry.Sample{Time: 11, Uplinks: []float64{0, 0}, Source: "healthy"}); err != nil {
		t.Fatal(err)
	}
	// Past probation: readmitted, journaled, and the sample processed.
	if _, err := rt.Ingest(good(40)); err != nil {
		t.Fatalf("readmitted sample rejected: %v", err)
	}
	if len(rt.st.Sources) != 0 {
		t.Fatalf("readmitted source kept in the quarantine table: %v", rt.st.Sources)
	}
	if rt.Journal().CountKind(EventQuarantineReadmit) != 1 {
		t.Fatalf("no readmit event:\n%s", rt.Journal().String())
	}
	if rt.Journal().CountKind(EventQuarantine) != 1 {
		t.Fatalf("want exactly one quarantine event:\n%s", rt.Journal().String())
	}
}

// TestReplanDeadlineStalePlan: throttling the planner far below the work a
// replan needs makes the deadline abort deterministically; the previous
// plan stays published and the journal says so.
func TestReplanDeadlineStalePlan(t *testing.T) {
	policy := chaosPolicy()
	policy.MinInterval = 0 // let every drifted sample attempt a replan
	rt, err := New(Config{Scenario: fadingScenario(t), Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetPlannerThrottle(0.001); err != nil { // budget: 2s × 1000 ops/s × 0.001 = 2 ops
		t.Fatal(err)
	}
	// A sample with enough drift to demand a full replan.
	plan, err := rt.Ingest(telemetry.Sample{Time: 1, Uplinks: []float64{1e6, 1e6}})
	if err != nil {
		t.Fatalf("aborted replan must not error: %v", err)
	}
	if rt.FullReplans() != 0 {
		t.Fatal("full replan ran despite a 2-op budget")
	}
	if got := rt.Metrics().Counter("serve.replans.aborted").Value(); got != 1 {
		t.Fatalf("aborted counter = %d, want 1", got)
	}
	if rt.Journal().CountKind(EventAbortedReplan) != 1 {
		t.Fatalf("journal lacks the abort:\n%s", rt.Journal().String())
	}
	// The published plan is the stale base refreshed through the cheap
	// path — same assignments, never a partial replan.
	if plan.PlannerName == "" || !strings.Contains(plan.PlannerName, "+online") {
		t.Fatalf("fallback plan came from %q, want the cheap path", plan.PlannerName)
	}
	// Restore full speed: the same drift now completes a full replan.
	if err := rt.SetPlannerThrottle(1); err != nil {
		t.Fatal(err)
	}
	// MinInterval is 0 and the abort armed no permanent block.
	if _, err := rt.Ingest(telemetry.Sample{Time: 20, Uplinks: []float64{1.1e6, 1.1e6}}); err != nil {
		t.Fatal(err)
	}
	if rt.FullReplans() != 1 {
		t.Fatalf("full replans = %d, want 1 after throttle restored", rt.FullReplans())
	}
}

// FuzzSnapshotDecode: arbitrary bytes must never panic the decoder,
// anything it accepts must re-encode and decode to the same state, and
// restoring it into a runtime over the replay fixture must return a runtime
// or an error, never panic.
func FuzzSnapshotDecode(f *testing.F) {
	sc := fadingScenario(f)
	data, err := EncodeSnapshot(seedSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	extreme := seedSnapshot()
	extreme.Rates = []float64{5e-324, 1.7e308}
	extreme.PlanRates = []float64{1e-300, 1e300}
	if data, err = EncodeSnapshot(extreme); err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"magic":"edgesurgeon-serve-snapshot","v":2}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := DecodeSnapshot(raw)
		if err != nil {
			return
		}
		again, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		if _, err := DecodeSnapshot(again); err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		rt, err := restoreSnapshot(Config{Scenario: sc}, s)
		if err == nil && rt.Current() == nil {
			t.Fatal("restore returned a runtime without a plan")
		}
	})
}

// TestParseWALValidatesEveryEntry: an entry that breaks a WAL rule — a Seq
// that does not increase, both or neither of sample and throttle, a throttle
// outside (0, 1] — is refused with its line number in the middle of the
// file, and dropped as a torn tail when it is the last line.
func TestParseWALValidatesEveryEntry(t *testing.T) {
	const head = `{"magic":"edgesurgeon-wal","v":2}` + "\n" +
		`{"seq":1,"sample":{"t":0}}` + "\n" +
		`{"seq":2,"throttle":0.5}` + "\n"
	const later = `{"seq":9,"sample":{"t":5}}` + "\n"
	for _, tc := range []struct{ bad, rule string }{
		{`{"seq":2,"sample":{"t":1}}`, "seq 2 does not follow 2"},
		{`{"seq":3}`, "carries neither sample nor control"},
		{`{"seq":3,"sample":{"t":1},"throttle":0.5}`, "carries both sample and control"},
		{`{"seq":3,"throttle":1.5}`, "throttle 1.5 is outside (0, 1]"},
		{`{"seq":3,"throttle":-0.25}`, "throttle -0.25 is outside (0, 1]"},
	} {
		_, err := ParseWAL([]byte(head + tc.bad + "\n" + later))
		if err == nil || !strings.Contains(err.Error(), "wal line 4: ") || !strings.Contains(err.Error(), tc.rule) {
			t.Errorf("%s mid-file: err %v, want line 4 refused for %q", tc.bad, err, tc.rule)
		}
		entries, err := ParseWAL([]byte(head + tc.bad + "\n"))
		if err != nil || len(entries) != 2 || entries[1].Seq != 2 {
			t.Errorf("%s as the last line: %d entries, err %v; want it dropped as a torn tail", tc.bad, len(entries), err)
		}
	}
}

// FuzzWALReplay: arbitrary WAL bytes must never panic the parser, and
// whatever it accepts must satisfy the strictly-increasing-Seq contract.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte("{\"magic\":\"edgesurgeon-wal\",\"v\":2}\n{\"seq\":1,\"sample\":{\"t\":0}}\n"))
	f.Add([]byte("{\"magic\":\"edgesurgeon-wal\",\"v\":2}\n{\"seq\":1,\"throttle\":0.5}\n{\"seq\":2,\"sample\":{\"t\":\"NaN\",\"uplinks\":[-1,\"+Inf\"],\"src\":\"x\"}}\n"))
	f.Add([]byte("{\"magic\":\"edgesurgeon-wal\",\"v\":2}\n{\"seq\":1,\"sample\":{\"t\":3}}\n{\"seq\":1,"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, raw []byte) {
		entries, err := ParseWAL(raw)
		if err != nil {
			return
		}
		for i := 1; i < len(entries); i++ {
			if entries[i].Seq <= entries[i-1].Seq {
				t.Fatalf("accepted WAL with non-increasing seq: %d then %d", entries[i-1].Seq, entries[i].Seq)
			}
		}
		for _, e := range entries {
			if e.Sample == nil && e.Throttle == 0 {
				t.Fatalf("accepted empty entry %d", e.Seq)
			}
		}
	})
}
