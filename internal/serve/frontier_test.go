package serve

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/telemetry"
)

// runFrontierReplay mirrors runReplay with Config.Frontier enabled, so the
// runtime builds Pareto-frontier surgery tables at construction and
// rebuilds them on every full replan.
func runFrontierReplay(t testing.TB, trace []telemetry.Sample, opt joint.Options) (plans, journal, metrics string, rt *Runtime) {
	t.Helper()
	rt, err := New(Config{
		Scenario: fadingScenario(t),
		Planner:  &joint.Planner{Opt: opt},
		Policy:   Hysteresis(),
		Frontier: true,
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
	return b.String(), rt.Journal().String(), rt.Metrics().Text(), rt
}

// TestFrontierReplayDeterminism extends the byte-determinism pin to the
// frontier-table path: two identical replays with Config.Frontier must
// agree on every plan, journal entry, and metrics line, on both planner
// routes.
func TestFrontierReplayDeterminism(t *testing.T) {
	trace := recordReplayTrace(t)
	for _, tc := range []struct {
		name string
		opt  joint.Options
	}{
		{"monolithic", joint.Options{}},
		{"sharded", joint.Options{ShardThreshold: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plans1, journal1, metrics1, rt := runFrontierReplay(t, trace, tc.opt)
			plans2, journal2, metrics2, _ := runFrontierReplay(t, trace, tc.opt)

			if plans1 != plans2 {
				t.Fatalf("plan sequences diverged across identical frontier replays:\n--- first ---\n%s\n--- second ---\n%s", plans1, plans2)
			}
			if journal1 != journal2 {
				t.Fatalf("journals diverged:\n--- first ---\n%s\n--- second ---\n%s", journal1, journal2)
			}
			if metrics1 != metrics2 {
				t.Fatalf("metrics diverged:\n--- first ---\n%s\n--- second ---\n%s", metrics1, metrics2)
			}

			// One table build at construction plus one per full replan.
			reg := rt.Metrics()
			builds := reg.Counter("serve.frontier.builds").Value()
			full := reg.Counter("serve.replans.full").Value()
			if full == 0 {
				t.Fatalf("trace triggered no full replan:\n%s", journal1)
			}
			if builds != full+1 {
				t.Errorf("frontier builds = %d, want %d (construction + full replans)", builds, full+1)
			}
			if reg.Counter("serve.frontier.build_probes").Value() <= 0 {
				t.Error("frontier builds recorded no probes")
			}
			// The tables actually answered lookups: the replans after a
			// build run against the exact scenario the tables were built
			// for, so the frontier hit counter must move.
			if hits := reg.Counter("planner.frontier.hits").Value(); hits == 0 {
				t.Errorf("frontier-enabled replay recorded no table hits:\n%s", metrics1)
			}
		})
	}
}

// TestFrontierReplayParallelismInvariance: precomputed tables must keep the
// control plane's parallelism invariance — identical plans, journals and
// metrics, the build ledger included, whether the tables are built (at
// construction and on every full replan) on one goroutine or four, on both
// planner routes.
func TestFrontierReplayParallelismInvariance(t *testing.T) {
	trace := recordReplayTrace(t)
	for _, thresh := range []int{0, 1} {
		opt := joint.Options{ShardThreshold: thresh}
		var plans1, journal1, metrics1, plans4, journal4, metrics4 string
		atProcs(1, func() { plans1, journal1, metrics1, _ = runFrontierReplay(t, trace, opt) })
		atProcs(4, func() { plans4, journal4, metrics4, _ = runFrontierReplay(t, trace, opt) })

		label := fmt.Sprintf("thresh=%d", thresh)
		if plans1 != plans4 {
			t.Fatalf("%s: plan sequences diverged across parallelism levels:\n--- serial ---\n%s\n--- parallel ---\n%s", label, plans1, plans4)
		}
		if journal1 != journal4 {
			t.Fatalf("%s: journals diverged across parallelism levels:\n--- serial ---\n%s\n--- parallel ---\n%s", label, journal1, journal4)
		}
		if metrics1 != metrics4 {
			t.Fatalf("%s: metrics diverged across parallelism levels:\n--- serial ---\n%s\n--- parallel ---\n%s", label, metrics1, metrics4)
		}
	}
}

// TestFrontierOnOffReplay is the control-plane half of "tables are a pure
// accelerator": the same trace replayed with Config.Frontier on and off
// yields byte-identical plans sample by sample, the same journal, and the
// same metrics — apart from the serve.frontier.* build ledger and how the
// planner's lookups split into hits and misses (their sum is pinned) — on
// both planner routes.
func TestFrontierOnOffReplay(t *testing.T) {
	trace := recordReplayTrace(t)
	// split returns the metrics dump without the series Frontier may move,
	// plus the planner's total lookup count.
	split := func(metrics string) (rest string, lookups int64) {
		var keep []string
		for _, line := range strings.Split(metrics, "\n") {
			switch {
			case strings.Contains(line, "serve.frontier."):
			case strings.Contains(line, "planner.frontier."):
				fields := strings.Fields(line)
				n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
				if err != nil {
					t.Fatalf("unparseable tally line %q", line)
				}
				lookups += n
			default:
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n"), lookups
	}
	for _, thresh := range []int{0, 1} {
		opt := joint.Options{ShardThreshold: thresh}
		plansOff, journalOff, metricsOff := runReplay(t, trace, opt)
		plansOn, journalOn, metricsOn, _ := runFrontierReplay(t, trace, opt)
		label := fmt.Sprintf("thresh=%d", thresh)
		if plansOn != plansOff {
			t.Fatalf("%s: Frontier changed a plan:\n--- off ---\n%s\n--- on ---\n%s", label, plansOff, plansOn)
		}
		if journalOn != journalOff {
			t.Fatalf("%s: Frontier changed the journal:\n--- off ---\n%s\n--- on ---\n%s", label, journalOff, journalOn)
		}
		restOff, lookupsOff := split(metricsOff)
		restOn, lookupsOn := split(metricsOn)
		if restOn != restOff {
			t.Fatalf("%s: Frontier changed the metrics:\n--- off ---\n%s\n--- on ---\n%s", label, restOff, restOn)
		}
		if lookupsOn != lookupsOff || lookupsOn == 0 {
			t.Fatalf("%s: %d lookups with Frontier, %d without", label, lookupsOn, lookupsOff)
		}
	}
}
