package serve

import (
	"fmt"
	"runtime"
	"testing"

	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/joint"
)

// chaosSchedule arms every chaos kind over the fixture trace: planner
// slowdown across the middle, corruption of three samples (enough strikes
// from the shared "chaos" source to quarantine it), and — in the crashing
// variant — kills after samples 2, 5 and 9.
func chaosSchedule(t *testing.T, crashes bool) *faults.ChaosSchedule {
	t.Helper()
	events := []faults.ChaosEvent{
		{Kind: faults.SlowPlanner, Sample: 6, Until: 9, Factor: 0.001},
		{Kind: faults.CorruptSample, Sample: 3, Corrupt: faults.CorruptNegative},
		{Kind: faults.CorruptSample, Sample: 4, Corrupt: faults.CorruptNaN},
		{Kind: faults.CorruptSample, Sample: 7, Corrupt: faults.CorruptTimeRegression},
	}
	if crashes {
		for _, at := range []int{2, 5, 9} {
			events = append(events, faults.ChaosEvent{Kind: faults.CrashAfterSample, Sample: at})
		}
	}
	s, err := faults.NewChaos(events...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunChaosRecoveryFidelity is the harness-level statement of the
// tentpole invariant: a replay that crashes three times, throttles the
// planner into deadline aborts and eats corrupt samples produces the same
// journal, metrics and final plan as the identical replay without the
// crashes — compared raw, the planner's hit/miss split included. Both runs
// build frontier tables (at construction, on every full replan and on every
// recovery), on a pool one goroutine wide and again four wide.
func TestRunChaosRecoveryFidelity(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", procs), func(t *testing.T) {
			atProcs(procs, func() { runChaosRecoveryFidelity(t) })
		})
	}
}

func runChaosRecoveryFidelity(t *testing.T) {
	trace := recordReplayTrace(t)
	policy := chaosPolicy()
	baseGoroutines := runtime.NumGoroutine()

	run := func(crashes bool) *ChaosResult {
		t.Helper()
		store, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunChaos(Config{
			Scenario: fadingScenario(t),
			Planner:  &joint.Planner{},
			Policy:   policy,
			Store:    store,
			Frontier: true,
		}, trace, chaosSchedule(t, crashes))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	calm := run(false)
	defer calm.Runtime.Close()
	wild := run(true)
	defer wild.Runtime.Close()

	if wild.Crashes != 3 {
		t.Fatalf("crashes = %d, want 3", wild.Crashes)
	}
	if calm.Crashes != 0 || calm.Corrupted != 3 || wild.Corrupted != 3 {
		t.Fatalf("tallies off: calm=%+v wild=%+v", calm, wild)
	}
	if got, want := encodePlan(wild.Runtime.Current()), encodePlan(calm.Runtime.Current()); got != want {
		t.Fatalf("final plan diverged under crashes:\n--- calm ---\n%s\n--- wild ---\n%s", want, got)
	}
	if got, want := wild.Runtime.Journal().String(), calm.Runtime.Journal().String(); got != want {
		t.Fatalf("journal diverged under crashes:\n--- calm ---\n%s\n--- wild ---\n%s", want, got)
	}
	if got, want := wild.Runtime.Metrics().Text(), calm.Runtime.Metrics().Text(); got != want {
		t.Fatalf("metrics diverged under crashes:\n--- calm ---\n%s\n--- wild ---\n%s", want, got)
	}

	// The schedule must actually have drawn blood, or fidelity is vacuous.
	journal := calm.Runtime.Journal()
	if journal.CountKind(EventAbortedReplan) == 0 {
		t.Fatalf("slow-planner window produced no deadline abort:\n%s", journal.String())
	}
	if journal.CountKind(EventQuarantine) == 0 {
		t.Fatalf("corruption produced no quarantine:\n%s", journal.String())
	}
	if calm.Rejections == 0 {
		t.Fatal("corruption produced no rejections")
	}

	calm.Runtime.Close()
	wild.Runtime.Close()
	if err := CheckGoroutineLeak(baseGoroutines); err != nil {
		t.Fatal(err)
	}
}

// TestRunChaosNeedsStoreForCrashes pins the harness's refusal to run a
// crashing schedule without persistence.
func TestRunChaosNeedsStoreForCrashes(t *testing.T) {
	sched, err := faults.NewChaos(faults.ChaosEvent{Kind: faults.CrashAfterSample, Sample: 0})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunChaos(Config{Scenario: fadingScenario(t)}, nil, sched)
	if err == nil {
		t.Fatal("crash schedule without store ran")
	}
}
