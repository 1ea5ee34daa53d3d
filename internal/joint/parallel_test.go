package joint

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"edgesurgeon/internal/surgery"
)

// comparablePlan strips the table tally, which varies with how many lookups
// are answered from a filled cell and how many by the optimizer, so the rest
// can be compared byte-for-byte.
func comparablePlan(p *Plan) Plan {
	c := *p
	c.FrontierHits = 0
	c.FrontierMisses = 0
	return c
}

// TestParallelPlanMatchesSequential pins the sharing contract of a certified
// table set: its tables are read-only, so one Options.Frontiers may serve
// any number of planners at once. Across seeded random scenarios, eight
// plans made at the same time against one shared set are byte-identical to
// the plan made alone — decisions, objective bits, trajectory and tally.
// make test-race runs it under the race detector.
func TestParallelPlanMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 8; trial++ {
		sc := randomScenario(rng)
		set, err := BuildFrontierSet(sc, Options{}, surgery.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		p := &Planner{Opt: Options{Frontiers: set}}
		want, err := p.Plan(sc)
		if err != nil {
			t.Fatalf("trial %d sequential: %v", trial, err)
		}
		got := make([]*Plan, 8)
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		wg.Add(len(got))
		for g := range got {
			go func() {
				defer wg.Done()
				got[g], errs[g] = p.Plan(sc)
			}()
		}
		wg.Wait()
		for g, b := range got {
			if errs[g] != nil {
				t.Fatalf("trial %d planner %d: %v", trial, g, errs[g])
			}
			if !reflect.DeepEqual(want, b) {
				samePlanModuloCounters(t, "parallel", b, want)
				t.Fatalf("trial %d planner %d: tallied %d/%d, alone %d/%d", trial, g,
					b.FrontierHits, b.FrontierMisses, want.FrontierHits, want.FrontierMisses)
			}
		}
	}
}

// TestCacheOnOffEquivalence verifies memoization is purely an optimization:
// answering every surgery problem with a direct optimizer call (the
// unexported noMemo reference) must not change any plan, because the tables
// hold exactly what the optimizer returns at the snapped shares.
func TestCacheOnOffEquivalence(t *testing.T) {
	rngOn := rand.New(rand.NewSource(31337))
	rngOff := rand.New(rand.NewSource(31337))
	on := &Planner{}
	off := &Planner{Opt: Options{noMemo: true}}
	for trial := 0; trial < 15; trial++ {
		a, err := on.Plan(randomScenario(rngOn))
		if err != nil {
			t.Fatalf("trial %d memoized: %v", trial, err)
		}
		b, err := off.Plan(randomScenario(rngOff))
		if err != nil {
			t.Fatalf("trial %d unmemoized: %v", trial, err)
		}
		if b.FrontierHits != 0 || b.FrontierMisses != 0 {
			t.Fatalf("trial %d: the reference path reported table traffic %d/%d",
				trial, b.FrontierHits, b.FrontierMisses)
		}
		if !reflect.DeepEqual(comparablePlan(a), comparablePlan(b)) {
			t.Fatalf("trial %d: the tables changed the plan:\non  %+v\noff %+v", trial, a, b)
		}
	}
}

// TestCacheCountersAccount verifies the returned plan reports the memo's
// work: with many identical users sharing one table per server, the
// block-coordinate loop must find cells already filled, and hits+misses
// accounts for every optimization requested.
func TestCacheCountersAccount(t *testing.T) {
	sc := testScenario(t, 16, 30)
	// Make the population maximally redundant: 16 clones of user 0.
	for i := range sc.Users {
		u := sc.Users[0]
		u.Seed = int64(i)
		sc.Users[i] = u
	}
	plan, err := (&Planner{}).Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if plan.FrontierHits == 0 {
		t.Errorf("no filled cell was ever reused planning %d identical users (misses=%d)",
			len(sc.Users), plan.FrontierMisses)
	}
	if plan.FrontierMisses == 0 {
		t.Error("no misses recorded — counters cannot be wired correctly")
	}
	total := plan.FrontierHits + plan.FrontierMisses
	// At minimum, round 0 optimizes every user once.
	if total < int64(len(sc.Users)) {
		t.Errorf("hits+misses = %d, below one optimization per user (%d)", total, len(sc.Users))
	}
}
