package joint

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// maxDifferentialGap is the pinned relative objective gap the sharded
// planner is allowed versus the monolithic planner on differential test
// scenarios. The sharded plan being BETTER is always acceptable (the
// reconciliation rounds can escape a monolithic local optimum); this bound
// only caps how much worse the shard decomposition may leave it.
const maxDifferentialGap = 0.01

// randomWideScenario draws a structurally valid scenario with up to
// maxUsers users across 2-4 servers — wide enough that the sharded path
// has real shards to reconcile, small enough that the monolithic reference
// stays fast.
func randomWideScenario(rng *rand.Rand, maxUsers int) *Scenario {
	devices := hardware.Devices()[1:] // skip MCU: not every model fits
	models := dnn.Zoo()
	servers := hardware.Servers()
	sc := &Scenario{}
	nServers := 2 + rng.Intn(3)
	for s := 0; s < nServers; s++ {
		sc.Servers = append(sc.Servers, Server{
			Name:    fmt.Sprintf("s%d", s),
			Profile: servers[rng.Intn(len(servers))],
			Link:    netmodel.NewStatic("l", netmodel.Mbps(5+rng.Float64()*120), rng.Float64()*0.01),
			RTT:     rng.Float64() * 0.008,
		})
	}
	nUsers := 8 + rng.Intn(maxUsers-7)
	for u := 0; u < nUsers; u++ {
		usr := User{
			Name:       fmt.Sprintf("u%d", u),
			Model:      models[rng.Intn(len(models))],
			Device:     devices[rng.Intn(len(devices))],
			Rate:       0.2 + rng.Float64()*3,
			Difficulty: workload.DifficultyKind(rng.Intn(4)),
			Arrivals:   workload.Poisson,
			Seed:       rng.Int63(),
		}
		if rng.Float64() < 0.4 {
			usr.Deadline = 0.15 + rng.Float64()
		}
		if rng.Float64() < 0.3 {
			usr.Weight = 0.5 + rng.Float64()*3
		}
		if rng.Float64() < 0.3 {
			usr.TxCompression = 0.25
		}
		sc.Users = append(sc.Users, usr)
	}
	return sc
}

// offloadScenario builds the canonical non-contending scenario: 2·perServer
// identical weak-device users with a heavy model in front of two identical
// well-provisioned servers. The greedy initial assignment splits the users
// evenly, every shard converges to the same fixed point, and no
// cross-shard migration can improve anything — the regime where the
// sharded plan must be bit-identical to the monolithic one.
func offloadScenario(perServer int) *Scenario {
	models := dnn.Zoo()
	heaviest := models[0]
	for _, m := range models[1:] {
		if m.TotalFLOPs() > heaviest.TotalFLOPs() {
			heaviest = m
		}
	}
	var device *hardware.Profile
	for _, d := range hardware.Devices()[1:] {
		if d.FitsModel(heaviest) {
			device = d
			break
		}
	}
	srv := hardware.Servers()[0]
	sc := &Scenario{}
	for s := 0; s < 2; s++ {
		sc.Servers = append(sc.Servers, Server{
			Name:    fmt.Sprintf("s%d", s),
			Profile: srv,
			Link:    netmodel.NewStatic("l", netmodel.Mbps(200), 0.002),
			RTT:     0.002,
		})
	}
	for u := 0; u < 2*perServer; u++ {
		sc.Users = append(sc.Users, User{
			Name:       fmt.Sprintf("u%d", u),
			Model:      heaviest,
			Device:     device,
			Rate:       1.5,
			Difficulty: workload.UniformDifficulty,
			Arrivals:   workload.Poisson,
		})
	}
	return sc
}

// planPair plans the same scenario monolithically and sharded.
func planPair(t *testing.T, sc *Scenario) (mono, sharded *Plan) {
	t.Helper()
	var err error
	mono, err = (&Planner{}).Plan(sc)
	if err != nil {
		t.Fatalf("monolithic plan: %v", err)
	}
	sp := &Planner{Opt: Options{ShardThreshold: 1}}
	sharded, err = sp.Plan(sc)
	if err != nil {
		t.Fatalf("sharded plan: %v", err)
	}
	if mono.Shards != 0 {
		t.Fatalf("monolithic plan reports %d shards", mono.Shards)
	}
	if sharded.Shards == 0 {
		t.Fatalf("sharded plan reports zero shards (threshold not honored)")
	}
	return mono, sharded
}

// relativeGap is how much worse (positive) or better (negative) the sharded
// objective is than the monolithic one.
func relativeGap(mono, sharded *Plan) float64 {
	return (sharded.Objective - mono.Objective) / math.Max(mono.Objective, 1e-12)
}

// checkPlanStructure re-runs the structural invariants on a sharded plan:
// share budgets per server, offloading plans always server-backed, and the
// objective consistent with the decisions.
func checkPlanStructure(t *testing.T, sc *Scenario, plan *Plan) {
	t.Helper()
	compute := make([]float64, len(sc.Servers))
	bandwidth := make([]float64, len(sc.Servers))
	for i, d := range plan.Decisions {
		if err := d.Plan.Validate(); err != nil {
			t.Fatalf("user %d: %v", i, err)
		}
		if d.Server >= 0 {
			compute[d.Server] += d.ComputeShare
			bandwidth[d.Server] += d.BandwidthShare
		} else if d.Plan.Partition != sc.Users[i].Model.NumUnits() {
			t.Fatalf("user %d: offloading plan without server", i)
		}
	}
	for s := range sc.Servers {
		if compute[s] > 1+1e-6 || bandwidth[s] > 1+1e-6 {
			t.Fatalf("server %d over-allocated: f=%g b=%g", s, compute[s], bandwidth[s])
		}
	}
	var want float64
	for i := range plan.Decisions {
		want += sc.Users[i].weight() * plan.Decisions[i].Latency()
	}
	if math.Abs(plan.Objective-want) > 1e-9*(1+want) {
		t.Fatalf("objective %.9g != recomputed %.9g", plan.Objective, want)
	}
}

// TestShardedDifferentialGap pins the sharded planner's optimality gap:
// on seeded random scenarios of up to 64 users, the sharded objective is
// never more than maxDifferentialGap worse than the monolithic reference.
func TestShardedDifferentialGap(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 12; trial++ {
		sc := randomWideScenario(rng, 64)
		mono, sharded := planPair(t, sc)
		checkPlanStructure(t, sc, sharded)
		if gap := relativeGap(mono, sharded); gap > maxDifferentialGap {
			t.Fatalf("trial %d (%d users, %d servers): sharded objective %.9g is %.2f%% worse than monolithic %.9g",
				trial, len(sc.Users), len(sc.Servers), sharded.Objective, gap*100, mono.Objective)
		}
	}
}

// TestShardedBitIdenticalWithoutContention demands byte-identical decisions
// on scenarios whose shards never contend: every shard converges to its own
// fixed point and no reconciliation move is improving, so the hierarchical
// decomposition must be invisible in the output.
func TestShardedBitIdenticalWithoutContention(t *testing.T) {
	for _, perServer := range []int{2, 5, 9} {
		sc := offloadScenario(perServer)
		mono, sharded := planPair(t, sc)
		// The scenario must actually exercise offloading, or bit-identity
		// would hold vacuously for all-local plans.
		crossing := 0
		for i, d := range mono.Decisions {
			if d.Plan.Partition < sc.Users[i].Model.NumUnits() {
				crossing++
			}
		}
		if crossing == 0 {
			t.Fatalf("perServer=%d: no user offloads; scenario does not exercise the shard/monolithic boundary", perServer)
		}
		if mono.Objective != sharded.Objective {
			t.Fatalf("perServer=%d: objective differs: monolithic %.17g vs sharded %.17g",
				perServer, mono.Objective, sharded.Objective)
		}
		if !reflect.DeepEqual(mono.Decisions, sharded.Decisions) {
			for i := range mono.Decisions {
				if !reflect.DeepEqual(mono.Decisions[i], sharded.Decisions[i]) {
					t.Fatalf("perServer=%d: decision %d differs:\nmonolithic: %+v\nsharded:    %+v",
						perServer, i, mono.Decisions[i], sharded.Decisions[i])
				}
			}
			t.Fatalf("perServer=%d: decisions differ", perServer)
		}
	}
}

// TestShardedParallelismInvariance demands the sharded planner produce
// byte-identical plans — decisions, objective, shards, feasibility and the
// hit/miss tally — on fresh table sets at GOMAXPROCS 1, 2 and 8: the core
// count must leave no trace in a plan.
func TestShardedParallelismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	for trial := 0; trial < 4; trial++ {
		sc := randomWideScenario(rng, 48)
		var ref *Plan
		for _, procs := range []int{1, 2, 8} {
			var plan *Plan
			atProcs(procs, func() {
				set, err := BuildFrontierSet(sc, Options{}, surgery.BuildOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if plan, err = (&Planner{Opt: Options{ShardThreshold: 1, Frontiers: set}}).Plan(sc); err != nil {
					t.Fatalf("trial %d procs %d: %v", trial, procs, err)
				}
			})
			if ref == nil {
				ref = plan
				continue
			}
			if !reflect.DeepEqual(plan, ref) {
				samePlanModuloCounters(t, fmt.Sprintf("trial %d procs %d", trial, procs), plan, ref)
				t.Fatalf("trial %d procs %d: plan diverges from the one-goroutine build's (shards %d vs %d, tally %d/%d vs %d/%d)",
					trial, procs, plan.Shards, ref.Shards, plan.FrontierHits, plan.FrontierMisses, ref.FrontierHits, ref.FrontierMisses)
			}
		}
	}
}

// TestShardThresholdBoundary verifies the routing contract: scenarios below
// the threshold take the monolithic path bit for bit (Shards == 0 and
// identical output to an unsharded planner), scenarios at or above it take
// the sharded path.
func TestShardThresholdBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sc := randomWideScenario(rng, 24)
	n := len(sc.Users)

	below := &Planner{Opt: Options{ShardThreshold: n + 1}}
	pb, err := below.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Shards != 0 {
		t.Fatalf("threshold above user count still sharded (%d shards)", pb.Shards)
	}
	mono, err := (&Planner{}).Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Objective != mono.Objective || !reflect.DeepEqual(pb.Decisions, mono.Decisions) {
		t.Fatalf("below-threshold plan differs from the monolithic planner's")
	}

	at := &Planner{Opt: Options{ShardThreshold: n}}
	pa, err := at.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Shards == 0 {
		t.Fatalf("threshold equal to user count did not shard")
	}
}

// TestNominateTopKByWeightedLatency pins the scale-regime nomination on a
// donor shard larger than k: exactly k of its users, by descending weight ×
// latency, users of equal contribution in the shard's own order, and never
// a user of another shard however large its contribution. The shard is
// wider than the sorts' insertion-sort cutoff, so an unstable sort shows.
func TestNominateTopKByWeightedLatency(t *testing.T) {
	const n = 16
	// Weight and latency by user index mod 4: contributions 0.2, 0.4,
	// 0.05 and 0.6, an order latency alone would not give.
	class := []struct{ weight, latency float64 }{{1, 0.2}, {4, 0.1}, {0.5, 0.1}, {2, 0.3}}
	st := &state{
		hot: &userSoA{weight: make([]float64, n+1)},
		ds:  make([]Decision, n+1),
	}
	shard := make([]int, 0, n)
	for ui := n - 1; ui >= 0; ui-- {
		shard = append(shard, ui)
		c := class[ui%4]
		st.hot.weight[ui], st.ds[ui].Eval = c.weight, surgery.Eval{FixedSec: c.latency}
	}
	st.hot.weight[n], st.ds[n].Eval = 9, surgery.Eval{FixedSec: 10}
	st.assigned = [][]int{shard, {n}}
	ranked := []int{15, 11, 7, 3, 13, 9, 5, 1, 12, 8, 4, 0, 14, 10, 6, 2}
	for _, k := range []int{1, 4, 6, 9, 15} {
		if got := st.nominate(0, k); !reflect.DeepEqual(got, ranked[:k]) {
			t.Errorf("nominate(k=%d) = %v, want %v", k, got, ranked[:k])
		}
	}
	if got := st.nominate(0, n); !reflect.DeepEqual(got, shard) {
		t.Errorf("nominate(k=%d) = %v, want the whole shard in its own order %v", n, got, shard)
	}
	if want := []int{15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}; !reflect.DeepEqual(st.assigned[0], want) {
		t.Fatalf("nominate reordered the shard: %v", st.assigned[0])
	}
}
