package joint

import (
	"math/rand"
	"reflect"
	"testing"
)

// comparablePlan strips the table tally, which varies with how many lookups
// a route schedules (the monolithic reassignment scan is lazy at one worker
// and eager above) and with how many it answers from the optimizer, so the
// rest can be compared byte-for-byte.
func comparablePlan(p *Plan) Plan {
	c := *p
	c.FrontierHits = 0
	c.FrontierMisses = 0
	return c
}

// TestParallelPlanMatchesSequential is the determinism contract: across
// seeded random scenarios, Parallelism: 8 must emit byte-identical plans to
// Parallelism: 1 — same decisions (surgery, shares, assignment), same
// objective bits, same trajectory.
func TestParallelPlanMatchesSequential(t *testing.T) {
	rngSeq := rand.New(rand.NewSource(2024))
	rngPar := rand.New(rand.NewSource(2024))
	seq := &Planner{Opt: Options{Parallelism: 1}}
	par := &Planner{Opt: Options{Parallelism: 8}}
	for trial := 0; trial < 25; trial++ {
		a, err := seq.Plan(randomScenario(rngSeq))
		if err != nil {
			t.Fatalf("trial %d sequential: %v", trial, err)
		}
		b, err := par.Plan(randomScenario(rngPar))
		if err != nil {
			t.Fatalf("trial %d parallel: %v", trial, err)
		}
		if a.Objective != b.Objective {
			t.Fatalf("trial %d: objective %.17g (seq) != %.17g (par)", trial, a.Objective, b.Objective)
		}
		if !reflect.DeepEqual(comparablePlan(a), comparablePlan(b)) {
			for i := range a.Decisions {
				if !reflect.DeepEqual(a.Decisions[i], b.Decisions[i]) {
					t.Fatalf("trial %d: decisions diverge at user %d:\nseq %+v\npar %+v",
						trial, i, a.Decisions[i], b.Decisions[i])
				}
			}
			t.Fatalf("trial %d: plans diverge outside decisions:\nseq %+v\npar %+v", trial, a, b)
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
	on := &Planner{Opt: Options{Parallelism: 1}}
	off := &Planner{Opt: Options{Parallelism: 1, noMemo: true}}
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
// block-coordinate loop must find cells already filled, hits+misses accounts
// for every optimization requested, and the split is the same at every
// parallelism level (two servers: the reassignment scan has one target and is
// lazy at every level, so all levels schedule the same lookups).
func TestCacheCountersAccount(t *testing.T) {
	sc := testScenario(t, 16, 30)
	// Make the population maximally redundant: 16 clones of user 0.
	for i := range sc.Users {
		u := sc.Users[0]
		u.Seed = int64(i)
		sc.Users[i] = u
	}
	plan, err := (&Planner{Opt: Options{Parallelism: 1}}).Plan(sc)
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
	for _, par := range []int{2, 4, 8} {
		p, err := (&Planner{Opt: Options{Parallelism: par}}).Plan(sc)
		if err != nil {
			t.Fatal(err)
		}
		if p.FrontierHits != plan.FrontierHits || p.FrontierMisses != plan.FrontierMisses {
			t.Errorf("Parallelism %d tallied %d/%d, Parallelism 1 %d/%d", par,
				p.FrontierHits, p.FrontierMisses, plan.FrontierHits, plan.FrontierMisses)
		}
	}
}
