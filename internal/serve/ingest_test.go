package serve

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/telemetry"
)

// refusedRates are uplink rates that pass the finite, non-negative checks
// but that no plan can be made at: 1.7e308 bps overflows the planning-time
// mean (rate × horizon = +Inf), and 5e-324 bps leaves no surgery plan that
// meets an accuracy floor.
var refusedRates = []float64{1.7e308, 5e-324}

// preset is a named policy.
type preset struct {
	name   string
	policy Policy
}

// presets are the policy constructors every preset-wide test runs.
var presets = []preset{
	{"always", AlwaysReplan()},
	{"never", NeverReplan()},
	{"hysteresis", Hysteresis()},
	{"robust", Robust()},
	{"delta", Delta()},
}

// withRate returns s with server 0's uplink set to r.
func withRate(s telemetry.Sample, r float64) telemetry.Sample {
	s.Uplinks = append([]float64(nil), s.Uplinks...)
	s.Uplinks[0] = r
	return s
}

// TestPlannerRefusedRatesAreRejections: a rate the planner refuses is a
// typed rejection that moves nothing — not the clock, the rate, the plan
// or the journal — and the next valid sample plans as usual. A chaos replay
// counts it as one rejection and finishes, and crashing after every sample
// of that replay ends where the uninterrupted one does.
func TestPlannerRefusedRatesAreRejections(t *testing.T) {
	trace := recordReplayTrace(t)
	for _, p := range presets {
		if p.policy.NeverReplan {
			continue // never plans, so the planner refuses nothing
		}
		for _, rate := range refusedRates {
			t.Run(fmt.Sprintf("%s/%g", p.name, rate), func(t *testing.T) {
				rt, err := New(Config{Scenario: fadingScenario(t), Policy: p.policy})
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range trace[:3] {
					if _, err := rt.Ingest(s); err != nil {
						t.Fatal(err)
					}
				}
				clock, rate0, plan, journal := rt.Clock(), rt.Rate(0), rt.Current(), rt.Journal().String()
				_, err = rt.Ingest(withRate(trace[3], rate))
				var bad *joint.BadObservationError
				if !errors.As(err, &bad) {
					t.Fatalf("ingest returned %v (%T), want *joint.BadObservationError", err, err)
				}
				if rt.Clock() != clock || rt.Rate(0) != rate0 || rt.Current() != plan || rt.Journal().String() != journal {
					t.Fatalf("refused sample moved the runtime: clock %g -> %g, rate %g -> %g, plan changed %t, journal:\n%s",
						clock, rt.Clock(), rate0, rt.Rate(0), rt.Current() != plan, rt.Journal())
				}
				if _, err := rt.Ingest(trace[3]); err != nil {
					t.Fatalf("valid sample after the refusal: %v", err)
				}

				chaosCfg := func(store *Store) Config {
					return Config{Scenario: fadingScenario(t), Planner: &joint.Planner{}, Policy: p.policy, Store: store}
				}
				refused := append([]telemetry.Sample(nil), trace...)
				refused[3] = withRate(trace[3], rate)
				calm, err := RunChaos(chaosCfg(nil), refused, nil)
				if err != nil {
					t.Fatal(err)
				}
				if calm.Rejections != 1 {
					t.Fatalf("rejections = %d, want 1", calm.Rejections)
				}
				var crashes []faults.ChaosEvent
				for i := range refused {
					crashes = append(crashes, faults.ChaosEvent{Kind: faults.CrashAfterSample, Sample: i})
				}
				sched, err := faults.NewChaos(crashes...)
				if err != nil {
					t.Fatal(err)
				}
				store, err := OpenStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				wild, err := RunChaos(chaosCfg(store), refused, sched)
				if err != nil {
					t.Fatal(err)
				}
				defer wild.Runtime.Close()
				if wild.Crashes != len(refused) || wild.Rejections != 1 {
					t.Fatalf("crashing replay: %d crashes, %d rejections; want %d and 1", wild.Crashes, wild.Rejections, len(refused))
				}
				if err := Diff(calm.Runtime, wild.Runtime); err != nil {
					t.Fatalf("crashes changed the run: %v", err)
				}
			})
		}
	}
}

// TestRefusedSampleLeavesNoTrace: a sample the planner refuses is not
// half-applied. Its health observation is dropped with its rates, so a
// runtime that refused it and then took a valid sample matches one that
// only took the valid sample.
func TestRefusedSampleLeavesNoTrace(t *testing.T) {
	mbps := netmodel.Mbps
	refused := telemetry.Sample{Time: 1, Uplinks: []float64{5e-324, 0}, Health: []bool{true, false}}
	valid := telemetry.Sample{Time: 2, Uplinks: []float64{mbps(20), mbps(12)}}
	for _, p := range presets {
		if p.policy.NeverReplan {
			continue // never plans, so it folds the refused sample's health
		}
		t.Run(p.name, func(t *testing.T) {
			run := func(samples ...telemetry.Sample) *Runtime {
				rt, err := New(Config{Scenario: fadingScenario(t), Policy: p.policy})
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range samples {
					_, _ = rt.Ingest(s)
				}
				return rt
			}
			a, b := run(refused, valid), run(valid)
			if got, want := EncodePlan(a.Current()), EncodePlan(b.Current()); got != want {
				t.Fatalf("plans differ:\n--- refused first ---\n%s\n--- valid only ---\n%s", got, want)
			}
			if got, want := a.Journal().String(), b.Journal().String(); got != want {
				t.Fatalf("journals differ:\n--- refused first ---\n%s\n--- valid only ---\n%s", got, want)
			}
			if a.Up(1) != b.Up(1) {
				t.Fatalf("server 1 up = %t after the refused sample, %t without it", a.Up(1), b.Up(1))
			}
			if got := a.Metrics().Counter("serve.samples_rejected").Value(); got != 1 {
				t.Fatalf("samples_rejected = %d, want 1", got)
			}
		})
	}
}

// TestOneRecordPerSample: every accepted sample is recorded once — one
// decision event per serve.samples count — and each decision kind's journal
// count equals its counter, under every preset and the delta test policy,
// on the clean replay trace and on the chaos trace.
func TestOneRecordPerSample(t *testing.T) {
	policies := append(slices.Clone(presets), preset{"delta-test", deltaPolicy()})
	decisions := []telemetry.EventKind{
		EventNoChange, EventCheapRefresh, EventDeferredInterval, EventDeferredBudget,
		EventFullReplan, EventDeltaReplan, EventAbortedReplan,
	}
	for _, tr := range []struct {
		name  string
		trace []telemetry.Sample
	}{{"replay", recordReplayTrace(t)}, {"chaos", chaosTrace(t)}} {
		for _, p := range policies {
			t.Run(tr.name+"/"+p.name, func(t *testing.T) {
				rt, err := New(Config{Scenario: fadingScenario(t), Policy: p.policy})
				if err != nil {
					t.Fatal(err)
				}
				var plans strings.Builder
				ingestAll(t, rt, tr.trace, &plans)
				j, reg := rt.Journal(), rt.Metrics()
				n := 0
				for _, k := range decisions {
					n += j.CountKind(k)
				}
				if got := reg.Counter("serve.samples").Value(); int64(n) != got {
					t.Fatalf("%d decision events for %d samples:\n%s", n, got, j)
				}
				deferred := j.CountKind(EventDeferredInterval) + j.CountKind(EventDeferredBudget)
				for _, c := range []struct {
					counter string
					events  int
				}{
					{"serve.no_change", j.CountKind(EventNoChange)},
					{"serve.replans.cheap", j.CountKind(EventCheapRefresh) + deferred},
					{"serve.replans.deferred", deferred},
					{"serve.replans.full", j.CountKind(EventFullReplan)},
					{"serve.replans.delta", j.CountKind(EventDeltaReplan)},
					{"serve.replans.aborted", j.CountKind(EventAbortedReplan)},
					{"serve.quarantine.quarantined", j.CountKind(EventQuarantine)},
					{"serve.quarantine.readmitted", j.CountKind(EventQuarantineReadmit)},
				} {
					if got := reg.Counter(c.counter).Value(); got != int64(c.events) {
						t.Errorf("%s = %d, journal holds %d:\n%s", c.counter, got, c.events, j)
					}
				}
			})
		}
	}
}
