package serve

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/telemetry"
)

// runFrontierReplay mirrors runReplay with Config.Frontier enabled, so the
// runtime registers a Pareto-frontier table set at construction and a fresh
// one on every full replan, and each plan fills the cells it reads.
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

			// One table set at construction plus one per full replan.
			reg := rt.Metrics()
			builds := reg.Counter("serve.frontier.builds").Value()
			full := reg.Counter("serve.replans.full").Value()
			if full == 0 {
				t.Fatalf("trace triggered no full replan:\n%s", journal1)
			}
			if builds != full+1 {
				t.Errorf("frontier builds = %d, want %d (construction + full replans)", builds, full+1)
			}
			if rt.planner.Opt.Frontiers.Probes() <= 0 {
				t.Error("the plans filled no cell of the runtime's table set")
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

// TestRefusedReplanKeepsFrontierSeries: the frontier series count only a
// table set the runtime keeps. A full replan the planner refuses discards
// the fresh set it planned with, so serve.frontier.builds and
// serve.frontier.tables read as before the sample and the runtime keeps its
// set; the next valid replan counts its own.
func TestRefusedReplanKeepsFrontierSeries(t *testing.T) {
	trace := recordReplayTrace(t)
	rt, err := New(Config{Scenario: fadingScenario(t), Policy: AlwaysReplan(), Frontier: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := rt.Metrics()
	builds, tables := reg.Counter("serve.frontier.builds"), reg.Gauge("serve.frontier.tables")
	set, wantTables := rt.planner.Opt.Frontiers, tables.Value()
	if builds.Value() != 1 {
		t.Fatalf("builds after construction = %d, want 1", builds.Value())
	}
	var bad *joint.BadObservationError
	if _, err := rt.Ingest(withRate(trace[0], 5e-324)); !errors.As(err, &bad) {
		t.Fatalf("ingest returned %v (%T), want *joint.BadObservationError", err, err)
	}
	if builds.Value() != 1 || tables.Value() != wantTables || rt.planner.Opt.Frontiers != set {
		t.Fatalf("refused replan moved the frontier series: builds %d (want 1), tables %g (want %g), set kept %t",
			builds.Value(), tables.Value(), wantTables, rt.planner.Opt.Frontiers == set)
	}
	if _, err := rt.Ingest(trace[0]); err != nil {
		t.Fatal(err)
	}
	if builds.Value() != 2 || tables.Value() != float64(rt.planner.Opt.Frontiers.Len()) || rt.planner.Opt.Frontiers == set {
		t.Fatalf("valid replan: builds %d (want 2), tables %g (want %d), new set installed %t",
			builds.Value(), tables.Value(), rt.planner.Opt.Frontiers.Len(), rt.planner.Opt.Frontiers != set)
	}
}
