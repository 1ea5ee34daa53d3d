package serve

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/joint"
)

// CheckGoroutineLeak polls until the process goroutine count has settled
// back to the baseline taken before a chaos run, tolerating the runtime's
// brief teardown lag. It returns an error naming the counts if goroutines
// are still leaked after the grace period.
func CheckGoroutineLeak(baseline int) error {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline {
		return fmt.Errorf("serve: %d goroutines still running, baseline was %d", n, baseline)
	}
	return nil
}

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
// keep frontier tables (registered at construction, on every full replan and
// on every recovery), at GOMAXPROCS 1 and again at 4.
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
	if err := Diff(calm.Runtime, wild.Runtime); err != nil {
		t.Fatalf("crashes changed the run: %v", err)
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

// TestRunChaosResumesStore: a replay cut short after a prefix of the trace
// under corruption and a planner slowdown leaves a store that RunChaos,
// handed the whole trace and no chaos, resumes at the prefix's end — and
// finishes with the journal, metrics and plan of the run that never
// stopped. A store that has seen more samples than the trace holds is an
// error naming both counts.
func TestRunChaosResumesStore(t *testing.T) {
	trace := recordReplayTrace(t)
	const prefix = 8
	schedule, err := faults.NewChaos(
		faults.ChaosEvent{Kind: faults.SlowPlanner, Sample: 2, Until: 5, Factor: 0.001},
		faults.ChaosEvent{Kind: faults.CorruptSample, Sample: 3, Corrupt: faults.CorruptNegative},
		faults.ChaosEvent{Kind: faults.CorruptSample, Sample: 4, Corrupt: faults.CorruptWidth},
		faults.ChaosEvent{Kind: faults.CorruptSample, Sample: 6, Corrupt: faults.CorruptNaN},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(store *Store) Config {
		return Config{Scenario: fadingScenario(t), Planner: &joint.Planner{}, Policy: chaosPolicy(), Store: store}
	}
	whole, err := RunChaos(cfg(nil), trace, schedule)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Runtime.Journal().CountKind(EventQuarantine) == 0 || whole.Runtime.Journal().CountKind(EventAbortedReplan) == 0 {
		t.Fatalf("schedule drew no quarantine or abort:\n%s", whole.Runtime.Journal().String())
	}

	dir := t.TempDir()
	reopen := func() *Store {
		store, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	first, err := RunChaos(cfg(reopen()), trace[:prefix], schedule)
	if err != nil {
		t.Fatal(err)
	}
	first.Runtime.Close()
	rest, err := RunChaos(cfg(reopen()), trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Runtime.Close()
	if rest.Resumed != prefix {
		t.Fatalf("resumed at sample %d, want %d", rest.Resumed, prefix)
	}
	if err := Diff(whole.Runtime, rest.Runtime); err != nil {
		t.Fatalf("resumed run differs from the uninterrupted one: %v", err)
	}
	rest.Runtime.Close()

	_, err = RunChaos(cfg(reopen()), trace[:prefix-1], nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("seen %d samples, the trace holds %d", len(trace), prefix-1)) {
		t.Fatalf("store longer than the trace: got %v", err)
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
