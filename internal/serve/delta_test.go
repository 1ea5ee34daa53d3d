package serve

import (
	"strings"
	"testing"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/telemetry"
)

// deltaPolicy arms the incremental replan path on top of the chaos policy:
// every qualifying replan routes through PlanDelta. deltaMaxDirtyFrac 1
// admits fleet-wide drift, so the fixture's two fading links both qualify
// and the replay exercises multi-dirty-shard deltas too.
func deltaPolicy() Policy {
	p := chaosPolicy()
	p.DeltaReplan = true
	p.deltaMaxDirtyFrac = 1
	return p
}

// runDeltaReplay replays the trace through a fresh runtime under the
// delta-enabled policy, with or without frontier tables, and returns the
// three byte-comparable artifacts.
func runDeltaReplay(t testing.TB, trace []telemetry.Sample, opt joint.Options, frontier bool) (plans, journal, metrics string) {
	t.Helper()
	rt, err := New(Config{
		Scenario: fadingScenario(t),
		Planner:  &joint.Planner{Opt: opt},
		Policy:   deltaPolicy(),
		Frontier: frontier,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(encodePlan(rt.Current()))
	ingestAll(t, rt, trace, &b)
	return b.String(), rt.Journal().String(), rt.Metrics().Text()
}

// TestDeltaReplayDeterminism pins that a delta-enabled replay is
// reproducible byte for byte — plans, journal (including the dirty-shard
// sets in delta events), and metrics (including the per-server drift
// gauges and the op-denominated delta-latency histogram) — and that the
// fixture actually routes replans through the delta path rather than
// vacuously falling back to full replans.
func TestDeltaReplayDeterminism(t *testing.T) {
	trace := chaosTrace(t)
	for _, tc := range []struct {
		name string
		opt  joint.Options
	}{
		{"monolithic-initial", joint.Options{}},
		{"sharded-initial", joint.Options{ShardThreshold: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plans1, journal1, metrics1 := runDeltaReplay(t, trace, tc.opt, false)
			plans2, journal2, metrics2 := runDeltaReplay(t, trace, tc.opt, false)
			if plans1 != plans2 {
				t.Fatalf("plan sequences diverged:\n--- first ---\n%s\n--- second ---\n%s", plans1, plans2)
			}
			if journal1 != journal2 {
				t.Fatalf("journals diverged:\n--- first ---\n%s\n--- second ---\n%s", journal1, journal2)
			}
			if metrics1 != metrics2 {
				t.Fatalf("metrics diverged:\n--- first ---\n%s\n--- second ---\n%s", metrics1, metrics2)
			}
			if !strings.Contains(journal1, string(EventDeltaReplan)) {
				t.Fatalf("trace triggered no delta replan:\n%s", journal1)
			}
			if !strings.Contains(journal1, "dirty shards [") {
				t.Fatalf("delta events lack the dirty-shard set:\n%s", journal1)
			}
			for _, needle := range []string{"serve.replans.delta", "serve.replan.dirty_shards", "serve.replan.delta_latency", "serve.drift.s00", "serve.drift.s01"} {
				if !strings.Contains(metrics1, needle) {
					t.Fatalf("metrics lack %q:\n%s", needle, metrics1)
				}
			}
		})
	}
}

// TestDeltaReplayParallelismInvariance extends the end-to-end invariant to
// the delta path, where each delta replan reads and fills the full replan's
// frontier set at the drifted rates: the control plane's entire observable
// output, the planner's hit/miss split included, is identical at GOMAXPROCS 1
// and 4.
func TestDeltaReplayParallelismInvariance(t *testing.T) {
	trace := chaosTrace(t)
	var plans1, journal1, metrics1, plans4, journal4, metrics4 string
	atProcs(1, func() { plans1, journal1, metrics1 = runDeltaReplay(t, trace, joint.Options{}, true) })
	atProcs(4, func() { plans4, journal4, metrics4 = runDeltaReplay(t, trace, joint.Options{}, true) })
	if plans1 != plans4 {
		t.Fatalf("plan sequences diverged across parallelism levels:\n--- serial ---\n%s\n--- parallel ---\n%s", plans1, plans4)
	}
	if journal1 != journal4 {
		t.Fatalf("journals diverged across parallelism levels:\n--- serial ---\n%s\n--- parallel ---\n%s", journal1, journal4)
	}
	if metrics1 != metrics4 {
		t.Fatalf("metrics diverged across parallelism levels:\n--- serial ---\n%s\n--- parallel ---\n%s", metrics1, metrics4)
	}
	if !strings.Contains(journal1, string(EventDeltaReplan)) || !strings.Contains(metrics1, "serve.frontier.builds") {
		t.Fatalf("trace ran no delta replan on a table set:\n%s\n%s", journal1, metrics1)
	}
}

// TestDeltaKillRecoverEveryPoint extends the crash-safety tentpole across
// delta replans: snapshots are only written at full-replan boundaries and
// a delta plan is defined relative to its predecessor, so recovery must
// reproduce the whole delta chain by replaying the WAL tail through
// ordinary ingestion. Killing after ANY sample and recovering must yield
// byte-identical plans, journal and metrics to the uninterrupted run.
func TestDeltaKillRecoverEveryPoint(t *testing.T) {
	trace := chaosTrace(t)
	for _, arm := range killArms {
		t.Run(arm.name, func(t *testing.T) {
			killAtEveryPoint(t, trace, deltaPolicy(), arm.frontier, string(EventDeltaReplan))
		})
	}
}

// TestDeltaDirtyFracFallback pins the width guard: when the drifted
// fraction of the fleet exceeds deltaMaxDirtyFrac, the runtime falls back
// to a full replan (a fleet-wide re-solve is what wide drift needs, and
// it restores the snapshot boundary). With both fixture links fading and a
// 2-server fleet, a 0.4 cap can never admit a delta.
func TestDeltaDirtyFracFallback(t *testing.T) {
	trace := recordReplayTrace(t)
	policy := deltaPolicy()
	policy.deltaMaxDirtyFrac = 0.4
	rt, err := New(Config{
		Scenario: fadingScenario(t),
		Planner:  &joint.Planner{},
		Policy:   policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	ingestAll(t, rt, trace, &b)
	journal := rt.Journal().String()
	if strings.Contains(journal, string(EventDeltaReplan)) {
		t.Fatalf("0.4 dirty-frac cap on a 2-server fleet admitted a delta replan:\n%s", journal)
	}
	if !strings.Contains(journal, string(EventFullReplan)) {
		t.Fatalf("fallback produced no full replan either:\n%s", journal)
	}
	if n := rt.Metrics().Counter("serve.replans.delta").Value(); n != 0 {
		t.Fatalf("delta counter = %d, want 0", n)
	}
}

// TestDeltaPolicyValidate: the delta presets validate, and a zero
// deltaMaxDirtyFrac (what every preset runs) resolves to the 0.5 cap.
func TestDeltaPolicyValidate(t *testing.T) {
	for _, p := range []Policy{Delta(), deltaPolicy()} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%+v rejected: %v", p, err)
		}
	}
	if got := Delta().deltaDirtyFracLimit(); got != 0.5 {
		t.Fatalf("default dirty-frac limit = %g, want 0.5", got)
	}
}
