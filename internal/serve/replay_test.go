package serve

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/telemetry"
)

// fadingScenario is the replay fixture: the static test links are replaced
// with two-state fading channels so the recorded trace actually drifts.
func fadingScenario(t testing.TB) *joint.Scenario {
	t.Helper()
	sc := testScenario(t, 4, 40)
	mk := func(name string, lo, hi float64, rtt float64, seed int64) netmodel.Link {
		link, err := netmodel.NewFading(name, netmodel.FadingConfig{
			States:    []float64{netmodel.Mbps(lo), netmodel.Mbps(hi)},
			MeanDwell: 8, Horizon: 120, RTT: rtt, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return link
	}
	sc.Servers[0].Link = mk("wlan-a", 8, 40, 0.004, 21)
	sc.Servers[1].Link = mk("wlan-b", 5, 24, 0.006, 22)
	return sc
}

// recordReplayTrace records the drifting-bandwidth + fault trace the replay
// tests ingest: 12 samples over 60 s with server 1 crashed in [20, 35).
func recordReplayTrace(t testing.TB) []telemetry.Sample {
	t.Helper()
	sc := fadingScenario(t)
	links := make([]netmodel.Link, len(sc.Servers))
	for i, s := range sc.Servers {
		links[i] = s.Link
	}
	sched := faults.MustNew(faults.Window{Kind: faults.ServerCrash, Server: 1, Start: 20, End: 35})
	trace, err := sim.RecordTrace(links, sched, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// encodePlan delegates to the exported deterministic plan encoding.
func encodePlan(p *joint.Plan) string { return EncodePlan(p) }

// runReplay replays the fixture trace through a fresh runtime with the
// given planner options and returns the three byte-comparable artifacts:
// the full plan sequence, the decision journal, and the metrics dump.
func runReplay(t testing.TB, trace []telemetry.Sample, opt joint.Options) (plans, journal, metrics string) {
	t.Helper()
	rt, err := New(Config{
		Scenario: fadingScenario(t),
		Planner:  &joint.Planner{Opt: opt},
		Policy:   Hysteresis(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(encodePlan(rt.Current()))
	for i := range trace {
		plan, err := rt.Ingest(trace[i])
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		fmt.Fprintf(&b, "t=%g\n%s", trace[i].Time, encodePlan(plan))
	}
	return b.String(), rt.Journal().String(), rt.Metrics().Text()
}

// TestReplayDeterminism pins byte-identical replays for both planner
// routes: the monolithic path and the hierarchical sharded path
// (ShardThreshold: 1 forces every full replan through planSharded).
func TestReplayDeterminism(t *testing.T) {
	trace := recordReplayTrace(t)
	for _, tc := range []struct {
		name string
		opt  joint.Options
	}{
		{"monolithic", joint.Options{}},
		{"sharded", joint.Options{ShardThreshold: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plans1, journal1, metrics1 := runReplay(t, trace, tc.opt)
			plans2, journal2, metrics2 := runReplay(t, trace, tc.opt)

			if plans1 != plans2 {
				t.Fatalf("plan sequences diverged across identical replays:\n--- first ---\n%s\n--- second ---\n%s", plans1, plans2)
			}
			if journal1 != journal2 {
				t.Fatalf("journals diverged:\n--- first ---\n%s\n--- second ---\n%s", journal1, journal2)
			}
			if metrics1 != metrics2 {
				t.Fatalf("metrics diverged:\n--- first ---\n%s\n--- second ---\n%s", metrics1, metrics2)
			}

			// The replay exercised both replan tiers, or determinism is vacuous.
			if !strings.Contains(journal1, string(EventFullReplan)) {
				t.Fatalf("trace triggered no full replan:\n%s", journal1)
			}
			if !strings.Contains(journal1, string(EventCheapRefresh)) && !strings.Contains(journal1, string(EventDeferredInterval)) {
				t.Fatalf("trace exercised no cheap refresh:\n%s", journal1)
			}
		})
	}
}

// atProcs runs f with GOMAXPROCS set to procs and restores the previous
// setting.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestReplayParallelismInvariance pins the determinism guarantee end to end,
// with and without Config.Frontier: the control plane's entire observable
// output — plans, journal, and the full metrics dump, the planner's hit/miss
// split included — is identical at GOMAXPROCS 1 and 4, so nothing on the
// planning path reads the core count.
func TestReplayParallelismInvariance(t *testing.T) {
	trace := recordReplayTrace(t)
	for _, tc := range []struct {
		name      string
		threshold int
		frontier  bool
	}{
		{"monolithic", 0, false},
		{"sharded", 1, false},
		{"monolithic-frontier", 0, true},
		{"sharded-frontier", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := joint.Options{ShardThreshold: tc.threshold}
			run := func() (plans, journal, metrics string) {
				if tc.frontier {
					plans, journal, metrics, _ = runFrontierReplay(t, trace, opt)
					return plans, journal, metrics
				}
				return runReplay(t, trace, opt)
			}
			var plans1, journal1, metrics1, plans4, journal4, metrics4 string
			atProcs(1, func() { plans1, journal1, metrics1 = run() })
			atProcs(4, func() { plans4, journal4, metrics4 = run() })

			if plans1 != plans4 {
				t.Fatalf("plan sequences diverged across parallelism levels:\n--- serial ---\n%s\n--- parallel ---\n%s", plans1, plans4)
			}
			if journal1 != journal4 {
				t.Fatalf("journals diverged across parallelism levels:\n--- serial ---\n%s\n--- parallel ---\n%s", journal1, journal4)
			}
			if metrics1 != metrics4 {
				t.Fatalf("metrics diverged across parallelism levels:\n--- serial ---\n%s\n--- parallel ---\n%s", metrics1, metrics4)
			}
		})
	}
}
