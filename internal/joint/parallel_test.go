package joint

import (
	"math/rand"
	"reflect"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// comparablePlan strips the fields that are documented to vary with
// parallelism/caching (the hit/miss split) so the rest can be compared
// byte-for-byte.
func comparablePlan(p *Plan) Plan {
	c := *p
	c.SurgeryCacheHits = 0
	c.SurgeryCacheMisses = 0
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
// disabling the surgery cache must not change any plan, because the planner
// always optimizes at quantized shares whether or not it caches.
func TestCacheOnOffEquivalence(t *testing.T) {
	rngOn := rand.New(rand.NewSource(31337))
	rngOff := rand.New(rand.NewSource(31337))
	on := &Planner{Opt: Options{Parallelism: 1}}
	off := &Planner{Opt: Options{Parallelism: 1, DisableSurgeryCache: true}}
	for trial := 0; trial < 15; trial++ {
		a, err := on.Plan(randomScenario(rngOn))
		if err != nil {
			t.Fatalf("trial %d cached: %v", trial, err)
		}
		b, err := off.Plan(randomScenario(rngOff))
		if err != nil {
			t.Fatalf("trial %d uncached: %v", trial, err)
		}
		if b.SurgeryCacheHits != 0 || b.SurgeryCacheMisses != 0 {
			t.Fatalf("trial %d: disabled cache reported counters %d/%d",
				trial, b.SurgeryCacheHits, b.SurgeryCacheMisses)
		}
		if !reflect.DeepEqual(comparablePlan(a), comparablePlan(b)) {
			t.Fatalf("trial %d: cache changed the plan:\non  %+v\noff %+v", trial, a, b)
		}
	}
}

// TestSurgeryCacheHitIdenticalToColdCall checks the memoization contract at
// the cache level: after a put, a get returns exactly the (plan, eval) a
// cold surgery.Optimize call at the same quantized environment computes.
func TestSurgeryCacheHitIdenticalToColdCall(t *testing.T) {
	dev, err := hardware.ByName("rpi4")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hardware.ByName("edge-gpu-t4")
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.ResNet18()
	env := surgery.Env{
		Device: dev, Server: srv,
		ComputeShare:   surgery.NewShareGrid(0).Snap(0.3137),
		BandwidthShare: surgery.NewShareGrid(0).Snap(0.7219),
		UplinkBps:      netmodel.Mbps(25),
		RTT:            0.004,
		Difficulty:     workload.EasyBiased,
		Rate:           2,
	}
	sopt := surgery.Options{FixedPartition: surgery.FreePartition, MinAccuracy: 0.7}

	cache := newSurgeryCache(nil)
	key := keyFor(m, env, sopt)
	if _, _, ok := cache.get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	plan, ev, err := surgery.Optimize(m, env, sopt)
	if err != nil {
		t.Fatal(err)
	}
	cache.put(key, plan, ev)

	gotPlan, gotEv, ok := cache.get(key)
	if !ok {
		t.Fatal("populated cache missed")
	}
	coldPlan, coldEv, err := surgery.Optimize(m, env, sopt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPlan, coldPlan) {
		t.Errorf("cached plan %+v != cold plan %+v", gotPlan, coldPlan)
	}
	if !reflect.DeepEqual(gotEv, coldEv) {
		t.Errorf("cached eval %+v != cold eval %+v", gotEv, coldEv)
	}
	if hits, misses := cache.counters(); hits != 1 || misses != 1 {
		t.Errorf("counters = %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestCacheCountersAccount verifies the returned plan reports the cache's
// work: with many identical users, the block-coordinate loop must hit the
// cache, and hits+misses accounts for every optimization requested.
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
	if plan.SurgeryCacheHits == 0 {
		t.Errorf("no cache hits planning %d identical users (misses=%d)",
			len(sc.Users), plan.SurgeryCacheMisses)
	}
	if plan.SurgeryCacheMisses == 0 {
		t.Error("no cache misses recorded — counters cannot be wired correctly")
	}
	total := plan.SurgeryCacheHits + plan.SurgeryCacheMisses
	// At minimum, round 0 optimizes every user once.
	if total < int64(len(sc.Users)) {
		t.Errorf("hits+misses = %d, below one optimization per user (%d)", total, len(sc.Users))
	}
}

// BenchmarkSurgeryCache contrasts the memoized hit path against the cold
// optimize-and-insert path for one representative surgery problem.
func BenchmarkSurgeryCache(b *testing.B) {
	dev, err := hardware.ByName("rpi4")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := hardware.ByName("edge-gpu-t4")
	if err != nil {
		b.Fatal(err)
	}
	m := dnn.ResNet34()
	env := surgery.Env{
		Device: dev, Server: srv,
		ComputeShare:   surgery.NewShareGrid(0).Snap(0.5),
		BandwidthShare: surgery.NewShareGrid(0).Snap(0.5),
		UplinkBps:      netmodel.Mbps(25),
		RTT:            0.004,
		Difficulty:     workload.EasyBiased,
		Rate:           2,
	}
	sopt := surgery.Options{FixedPartition: surgery.FreePartition}
	key := keyFor(m, env, sopt)

	b.Run("cold", func(b *testing.B) {
		cache := newSurgeryCache(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan, ev, err := surgery.Optimize(m, env, sopt)
			if err != nil {
				b.Fatal(err)
			}
			cache.put(key, plan, ev)
		}
	})
	b.Run("hit", func(b *testing.B) {
		cache := newSurgeryCache(nil)
		plan, ev, err := surgery.Optimize(m, env, sopt)
		if err != nil {
			b.Fatal(err)
		}
		cache.put(key, plan, ev)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, ok := cache.get(key); !ok {
				b.Fatal("unexpected miss")
			}
		}
	})
}
