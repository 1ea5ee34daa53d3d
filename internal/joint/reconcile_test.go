package joint

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/workload"
)

// reconcileFixture returns a planning state of sc the way reconciliation
// finds one: every user on its greedy server, two surgery + allocation rounds
// in, the lookups a candidate move makes already filled.
func reconcileFixture(tb testing.TB, sc *Scenario, opt Options) *state {
	tb.Helper()
	st := newState(sc, (&Planner{Opt: opt}).opts(), buildUserSoA(sc))
	st.seedGreedy()
	for round := 0; round < 2; round++ {
		if err := st.surgeryStep(); err != nil {
			tb.Fatal(err)
		}
		st.allocStep()
	}
	return st
}

// scratchClone returns a state sharing st's scenario, options, uplinks and
// surgery tables but owning copies of everything a candidate move touches —
// what the tests move by hand, or keep aside, to hold tryTargets to.
func (st *state) scratchClone() *state {
	c := &state{
		sc:          st.sc,
		opt:         st.opt,
		ds:          append([]Decision(nil), st.ds...),
		assigned:    make([][]int, len(st.assigned)),
		feasible:    st.feasible,
		srvFeasible: append([]bool(nil), st.srvFeasible...),
		uplink:      st.uplink,
		tables:      st.tables,
		hot:         st.hot,
	}
	for i := range st.assigned {
		c.assigned[i] = append([]int(nil), st.assigned[i]...)
	}
	return c
}

func (st *state) moveUser(ui, from, to int) {
	st.dropFromServer(ui, from)
	st.joinServer(ui, to)
}

// sameDecisionState fails unless got holds exactly want's decisions,
// per-server lists and feasibility flags.
func sameDecisionState(t *testing.T, label string, got, want *state) {
	t.Helper()
	if !reflect.DeepEqual(got.ds, want.ds) {
		t.Fatalf("%s: decisions differ", label)
	}
	for s := range want.assigned {
		// An emptied list may come back empty rather than nil.
		if !slices.Equal(got.assigned[s], want.assigned[s]) {
			t.Fatalf("%s: server %d's list %v, want %v", label, s, got.assigned[s], want.assigned[s])
		}
	}
	if !reflect.DeepEqual(got.srvFeasible, want.srvFeasible) {
		t.Fatalf("%s: feasibility flags %v, want %v", label, got.srvFeasible, want.srvFeasible)
	}
}

// handMove is one candidate evaluation written out target by target, the
// sequence tryTargets must be indistinguishable from: the two-shard objective
// (one running sum, donor then target), move, mover's surgery, both
// allocations, mover's surgery again, the objective again. It leaves c moved.
func handMove(c *state, ui, from, to int) (before, after float64, err error) {
	before = c.addShardObjective(c.addShardObjective(0, from), to)
	c.moveUser(ui, from, to)
	if err = c.refreshUser(ui); err != nil {
		return
	}
	c.allocServer(from)
	c.allocServer(to)
	if err = c.refreshUser(ui); err != nil {
		return
	}
	after = c.addShardObjective(c.addShardObjective(0, from), to)
	return
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestTryTargetsMatchesHandMove: for every user and every target order of the
// contended golden fixture (two servers) and a four-server one, a candidate
// rejected on every target restores the state exactly and charges 2 per
// target; the objective pair it showed accept for each target, and the state
// it leaves when the k-th target is the first accepted, are those of moving
// the user there by hand from the untouched state.
func TestTryTargetsMatchesHandMove(t *testing.T) {
	for _, fx := range []struct {
		name string
		sc   *Scenario
	}{
		{"contended", testScenario(t, 12, 40)},
		{"wide-b", randomWideScenario(rand.New(rand.NewSource(38)), 16)},
	} {
		t.Run(fx.name, func(t *testing.T) {
			st := reconcileFixture(t, fx.sc, Options{})
			for ui := range fx.sc.Users {
				from := st.ds[ui].Server
				if from < 0 {
					continue
				}
				targets := st.otherServers(nil, from)
				untouched := st.scratchClone()
				spent := st.spent
				var shown [][2]float64
				got := st.tryTargets(ui, from, targets, func(before, after float64) bool {
					shown = append(shown, [2]float64{before, after})
					return false
				})
				label := fmt.Sprintf("user %d rejected on %v", ui, targets)
				if got != -1 || len(shown) != len(targets) {
					t.Fatalf("%s: returned %d after %d verdicts", label, got, len(shown))
				}
				sameDecisionState(t, label, st, untouched)
				if st.spent != spent+2*int64(len(targets)) {
					t.Fatalf("%s: ledger advanced %d, want %d", label, st.spent-spent, 2*len(targets))
				}
				for k, to := range targets {
					label := fmt.Sprintf("user %d accepted on %d of %v", ui, to, targets)
					want := st.scratchClone()
					before, after, err := handMove(want, ui, from, to)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(shown[k][0], before) || !sameBits(shown[k][1], after) {
						t.Fatalf("%s: accept saw (%x, %x), hand move (%x, %x)", label, shown[k][0], shown[k][1], before, after)
					}
					live := st.scratchClone()
					verdicts := 0
					got := live.tryTargets(ui, from, targets, func(_, _ float64) bool {
						verdicts++
						return verdicts == k+1
					})
					if got != to {
						t.Fatalf("%s: returned %d", label, got)
					}
					sameDecisionState(t, label, live, want)
					if live.spent != 2*int64(k+1) {
						t.Fatalf("%s: ledger at %d, want %d", label, live.spent, 2*(k+1))
					}
				}
			}
		})
	}
}

// TestTryTargetsFailedProbe: the mover's surgery fails on the first target (a
// server whose memory holds no suffix of the model, from a device that cannot
// hold the model either) and succeeds on the second. The failed
// target alone restores exactly; followed by the second, the result is the
// hand move to the second from the untouched state — nothing of the first
// attempt, and nothing of the already re-allocated donor, leaks into it.
func TestTryTargetsFailedProbe(t *testing.T) {
	mcu, err := hardware.ByName("mcu-m7")
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := hardware.ByName("edge-gpu-t4")
	if err != nil {
		t.Fatal(err)
	}
	starved := *gpu // holds no suffix of the model, so no partition offloads to it
	starved.MemBytes = 1
	sc := &Scenario{}
	for s, prof := range []*hardware.Profile{gpu, &starved, gpu} {
		sc.Servers = append(sc.Servers, Server{
			Name: fmt.Sprintf("s%d", s), Profile: prof, RTT: 0.004,
			Link: netmodel.NewStatic(fmt.Sprintf("l%d", s), netmodel.Mbps(40), 0.004),
		})
	}
	model := dnn.ResNet18()
	for i := 0; i < 6; i++ {
		sc.Users = append(sc.Users, User{
			Name: fmt.Sprintf("u%d", i), Model: model, Device: mcu, Rate: 1 + float64(i%2), Deadline: 0.5,
			Difficulty: workload.EasyBiased, Arrivals: workload.Poisson, Seed: int64(i),
		})
	}
	st := newState(sc, (&Planner{}).opts(), buildUserSoA(sc))
	if err := st.seedAssignment([]int{0, 0, 0, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := st.surgeryStep(); err != nil {
		t.Fatal(err)
	}
	st.allocStep()
	always := func(_, _ float64) bool { return true }

	untouched, spent := st.scratchClone(), st.spent
	if got := st.tryTargets(0, 0, []int{1}, always); got != -1 {
		t.Fatalf("move onto the memory-starved server returned %d, want the probe to fail", got)
	}
	sameDecisionState(t, "failed probe", st, untouched)
	if st.spent != spent+2 {
		t.Fatalf("failed probe charged %d, want 2", st.spent-spent)
	}

	want := st.scratchClone()
	before, after, err := handMove(want, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	live := st.scratchClone()
	got := live.tryTargets(0, 0, []int{1, 2}, func(b, a float64) bool {
		if !sameBits(b, before) || !sameBits(a, after) {
			t.Errorf("accept saw (%x, %x) after the failed probe, hand move (%x, %x)", b, a, before, after)
		}
		return true
	})
	if got != 2 {
		t.Fatalf("returned %d, want the second target", got)
	}
	sameDecisionState(t, "second target after a failed probe", live, want)
	if live.spent != 4 {
		t.Fatalf("ledger at %d, want 2 per target tried", live.spent)
	}
}

// TestRejectedCandidateAllocatesNothing pins what DESIGN.md and tryTargets'
// comment state: on a 2000 x 8 state whose arenas have grown to shard size,
// evaluating a candidate on two targets and rejecting it allocates nothing.
func TestRejectedCandidateAllocatesNothing(t *testing.T) {
	st := reconcileFixture(t, contendedScaleScenario(2000), Options{})
	ui, targets := st.assigned[0][0], []int{1, 2}
	never := func(_, _ float64) bool { return false }
	st.tryTargets(ui, 0, targets, never) // grows the arenas, fills the mover's cells
	if allocs := testing.AllocsPerRun(20, func() { st.tryTargets(ui, 0, targets, never) }); allocs != 0 {
		t.Fatalf("a rejected candidate allocates %v times, want 0", allocs)
	}
}

// TestDecisionLatencyIsEvalLatencyAt: Decision.Latency spells Eval.LatencyAt
// out on the fields in place; the two must agree bit for bit.
func TestDecisionLatencyIsEvalLatencyAt(t *testing.T) {
	st := reconcileFixture(t, testScenario(t, 12, 40), Options{})
	st.ds = append(st.ds, Decision{Eval: st.ds[0].Eval, Server: -1}) // zero shares read as 1
	for ui := range st.ds {
		d := &st.ds[ui]
		if want := d.Eval.LatencyAt(orOne(d.ComputeShare), orOne(d.BandwidthShare)); !sameBits(d.Latency(), want) {
			t.Fatalf("user %d: Latency %x, LatencyAt %x", ui, d.Latency(), want)
		}
	}
}

// BenchmarkReconcileStep is one budget-regime migration pass at 2000 users x
// 8 servers (about a thousand candidates on two targets each), from the same
// pre-reconciliation state every iteration.
func BenchmarkReconcileStep(b *testing.B) {
	benchmarkReconcile(b, contendedScaleScenario(2000))
}

// BenchmarkReconcileExhaustive is one exhaustive pass — every user against
// every other server on the global objective — at 400 users x 4 servers.
func BenchmarkReconcileExhaustive(b *testing.B) {
	sc := contendedScaleScenario(400)
	sc.Servers = sc.Servers[:4]
	benchmarkReconcile(b, sc)
}

// benchmarkReconcile times reconcileStep, which picks the regime by size.
func benchmarkReconcile(b *testing.B, sc *Scenario) {
	st := reconcileFixture(b, sc, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	moved := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := st.scratchClone()
		b.StartTimer()
		moved, _ = c.reconcileStep(nil)
	}
	b.ReportMetric(float64(moved), "moves")
}
