package joint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/telemetry"
)

// This file is the cross-build golden: every other suite in the package
// compares two routes inside one build (sharded vs monolithic, frontier vs
// fallback, parallel vs sequential), which is exactly what a refactor of the
// shared planning core cannot be checked with — both sides move together.
// Here each (scenario, route, parallelism) cell is reduced to a SHA-256 over
// the whole Plan and compared with a digest recorded from the code as it
// stood before the planning core was unified. The digests must not be edited
// by a change that claims to keep plans bit-identical; a change that moves
// plans on purpose regenerates them (run with an emptied table and copy the
// "got" values from the failure output) and says so.
//
// What a digest covers: every Decision field (plan, eval, server, shares, as
// exact float bits), Objective, Feasible, Iterations, Trajectory, Shards,
// DirtyShards, PlannerName, SurgeryOps and the hit+miss totals of the surgery
// cache and the frontier tables. The hit/miss *split* is excluded: it is
// approximate under Parallelism > 1 by contract. Errors are digested by their
// text, so abort points (SurgeryBudget) and failure routing are pinned too.

// goldenHash accumulates one cell's canonical rendering.
type goldenHash struct{ h hash.Hash }

func newGoldenHash() *goldenHash { return &goldenHash{h: sha256.New()} }

func (g *goldenHash) str(s string)  { fmt.Fprintf(g.h, "%d:%s|", len(s), s) }
func (g *goldenHash) int(v int64)   { fmt.Fprintf(g.h, "%d|", v) }
func (g *goldenHash) f64(v float64) { fmt.Fprintf(g.h, "%016x|", math.Float64bits(v)) }
func (g *goldenHash) bool(v bool)   { fmt.Fprintf(g.h, "%t|", v) }
func (g *goldenHash) sum() string   { return hex.EncodeToString(g.h.Sum(nil))[:24] }

func (g *goldenHash) outcome(p *Plan, err error) {
	if err != nil {
		g.str("error")
		g.str(err.Error())
		g.bool(p != nil)
		return
	}
	g.plan(p)
}

func (g *goldenHash) plan(p *Plan) {
	g.str("plan")
	g.str(p.PlannerName)
	g.f64(p.Objective)
	g.bool(p.Feasible)
	g.int(int64(p.Iterations))
	g.int(int64(len(p.Trajectory)))
	for _, v := range p.Trajectory {
		g.f64(v)
	}
	g.int(int64(p.Shards))
	g.int(int64(p.DirtyShards))
	g.int(p.SurgeryOps)
	g.int(p.SurgeryCacheHits + p.SurgeryCacheMisses)
	g.int(p.FrontierHits + p.FrontierMisses)
	g.int(int64(len(p.Decisions)))
	for i := range p.Decisions {
		d := &p.Decisions[i]
		if d.Plan.Model != nil {
			g.str(d.Plan.Model.Name)
		} else {
			g.str("<nil>")
		}
		g.int(int64(len(d.Plan.Exits)))
		for _, e := range d.Plan.Exits {
			g.int(int64(e))
		}
		g.f64(d.Plan.Theta)
		g.int(int64(d.Plan.Partition))
		ev := &d.Eval
		for _, v := range []float64{ev.Latency, ev.Accuracy, ev.FixedSec, ev.ServerSec, ev.TxSec, ev.CrossProb, ev.DeviceSec} {
			g.f64(v)
		}
		g.int(int64(len(ev.ExitProbs)))
		for _, v := range ev.ExitProbs {
			g.f64(v)
		}
		g.int(int64(d.Server))
		g.f64(d.ComputeShare)
		g.f64(d.BandwidthShare)
	}
}

func (g *goldenHash) report(r HealthReport) {
	g.str("report")
	for _, dn := range r.Down {
		g.bool(dn)
	}
	g.int(int64(r.Evacuated))
	g.int(int64(r.LocalFallback))
	g.int(int64(r.Shed))
	g.int(int64(len(r.Degraded)))
	for _, ui := range r.Degraded {
		g.int(int64(ui))
	}
	g.bool(r.Restored)
}

// registry digests the planner's published series, folding each hit/miss
// pair into its (exact) sum.
func (g *goldenHash) registry(reg *telemetry.Registry) {
	snap := reg.Snapshot()
	folded := make(map[string]float64)
	for name, v := range snap {
		switch {
		case strings.HasSuffix(name, ".hits"):
			folded[strings.TrimSuffix(name, ".hits")+".lookups"] += v
		case strings.HasSuffix(name, ".misses"):
			folded[strings.TrimSuffix(name, ".misses")+".lookups"] += v
		default:
			folded[name] = v
		}
	}
	names := make([]string, 0, len(folded))
	for name := range folded {
		names = append(names, name)
	}
	sort.Strings(names)
	g.str("registry")
	for _, name := range names {
		g.str(name)
		g.f64(folded[name])
	}
}

// goldenLargeScenario is the scale-regime fixture: users × servers exceeds
// reconcileCandidateBudget and users exceed crossCheckUserLimit, so the
// sharded and delta routes take their budget-bounded reconciliation with no
// monolithic cross-check. Rates and deadlines are set so shards contend and
// reconciliation actually migrates users.
func goldenLargeScenario() *Scenario {
	sc := millionUserScenario(520, 8)
	for i := range sc.Users {
		u := &sc.Users[i]
		// Two rates only: every distinct (device, model, rate, server class)
		// tuple is one frontier table to build.
		u.Rate = 0.6 + 0.8*float64(i%2)
		u.Deadline = 0
		if i%3 == 0 {
			u.Deadline = 0.6
		}
		if i%7 == 0 {
			u.Weight = 2.5
		}
	}
	return sc
}

type goldenScenario struct {
	name  string
	sc    *Scenario
	opt   Options // scenario-level constraints (accuracy floor, ...)
	large bool
	// maxTables caps the frontier set (0 = default budget): table builds
	// dominate this test's runtime, and a partial set pins the mixed
	// hit/miss path the full and empty sets cannot.
	maxTables int
}

func goldenScenarios(t *testing.T) []goldenScenario {
	floor := testScenario(t, 4, 30)
	for i := range floor.Users {
		if i%3 == 0 {
			floor.Users[i].MinAccuracy = 0.62
		}
		floor.Users[i].Deadline = 0
	}
	return []goldenScenario{
		{name: "contended", sc: testScenario(t, 12, 40)},
		{name: "tight", sc: testScenario(t, 10, 8)},
		{name: "offload", sc: offloadScenario(5)},
		{name: "wide-a", sc: randomWideScenario(rand.New(rand.NewSource(18)), 16), maxTables: 12}, // 3 servers
		{name: "wide-b", sc: randomWideScenario(rand.New(rand.NewSource(38)), 16), maxTables: 12}, // 4 servers
		{name: "floor", sc: floor, opt: Options{AccuracyFloor: 0.55}, maxTables: 2},
		{name: "large", sc: goldenLargeScenario(), large: true, maxTables: 12},
	}
}

// goldenDrift returns the one-dirty and several-dirty drifted variants of sc
// with their dirty masks.
func goldenDrift(sc *Scenario) (one *Scenario, oneMask []bool, many *Scenario, manyMask []bool) {
	one = driftLink(sc, 0, 0.5)
	oneMask = make([]bool, len(sc.Servers))
	oneMask[0] = true
	many = driftLink(driftLink(sc, 0, 0.4), 1, 1.8)
	manyMask = make([]bool, len(sc.Servers))
	manyMask[0], manyMask[1] = true, true
	if last := len(sc.Servers) - 1; last > 1 {
		many = driftLink(many, last, 0.7)
		manyMask[last] = true
	}
	return
}

// goldenCells runs every route for one scenario at one parallelism level and
// reports each cell through emit.
func goldenCells(t *testing.T, gs goldenScenario, par int, emit func(cell string, g *goldenHash)) {
	sc := gs.sc
	base := gs.opt
	base.Parallelism = par
	thresh := 1
	if gs.large {
		thresh = 64
	}
	cell := func(name string, fill func(g *goldenHash)) {
		g := newGoldenHash()
		fill(g)
		emit(name, g)
	}
	with := func(mod func(o *Options)) Options {
		o := base
		mod(&o)
		return o
	}
	sharded := with(func(o *Options) { o.ShardThreshold = thresh })

	// Full planning routes.
	var monoRef *Plan
	if !gs.large {
		var err error
		monoRef, err = (&Planner{Opt: base}).Plan(sc)
		cell("mono", func(g *goldenHash) { g.outcome(monoRef, err) })
	}
	prev, err := (&Planner{Opt: sharded}).Plan(sc)
	cell("sharded", func(g *goldenHash) { g.outcome(prev, err) })
	if err != nil {
		t.Fatalf("%s: sharded plan: %v", gs.name, err)
	}

	// Frontier tables: full set and empty set (every lookup misses).
	bo := surgery.BuildOptions{Surgery: base.Surgery, MaxTables: gs.maxTables}
	full, err := BuildFrontierSet(sc, base, bo)
	if err != nil {
		t.Fatalf("%s: frontier build: %v", gs.name, err)
	}
	cell("frontier-tables", func(g *goldenHash) { g.int(int64(full.Len())) })
	for _, arm := range []struct {
		name string
		set  *surgery.FrontierSet
	}{{"full", full}, {"empty", surgery.NewFrontierSet(bo)}} {
		if !gs.large {
			p, err := (&Planner{Opt: with(func(o *Options) { o.Frontiers = arm.set })}).Plan(sc)
			cell("mono/frontier-"+arm.name, func(g *goldenHash) { g.outcome(p, err) })
		}
		p, err := (&Planner{Opt: with(func(o *Options) { o.Frontiers = arm.set; o.ShardThreshold = thresh })}).Plan(sc)
		cell("sharded/frontier-"+arm.name, func(g *goldenHash) { g.outcome(p, err) })
	}

	// Delta replans: none, one and several dirty shards; plain and against
	// an extended frontier set.
	one, oneMask, many, manyMask := goldenDrift(sc)
	dp := &Planner{Opt: sharded}
	p, err := dp.PlanDelta(sc, prev, make([]bool, len(sc.Servers)))
	cell("delta/none", func(g *goldenHash) { g.outcome(p, err) })
	p, err = dp.PlanDelta(one, prev, oneMask)
	cell("delta/one", func(g *goldenHash) { g.outcome(p, err) })
	deltaOne := p
	p, err = dp.PlanDelta(many, prev, manyMask)
	cell("delta/many", func(g *goldenHash) { g.outcome(p, err) })
	// A previous plan that never reconciled leaves migrations on the table,
	// so the scoped (scale-regime) reconciliation rounds accept moves and
	// ripple the donor scope outward.
	raw, err := (&Planner{Opt: with(func(o *Options) { o.ShardThreshold = thresh; o.DisableReassignment = true })}).Plan(sc)
	if err != nil {
		t.Fatalf("%s: unreconciled plan: %v", gs.name, err)
	}
	allMask := make([]bool, len(sc.Servers))
	for s := range allMask {
		allMask[s] = true
	}
	p, err = dp.PlanDelta(one, raw, oneMask)
	cell("delta/unreconciled/one", func(g *goldenHash) { g.outcome(p, err) })
	p, err = dp.PlanDelta(many, raw, manyMask)
	cell("delta/unreconciled/many", func(g *goldenHash) { g.outcome(p, err) })
	p, err = dp.PlanDelta(sc, raw, allMask)
	cell("delta/unreconciled/all", func(g *goldenHash) { g.outcome(p, err) })
	fsharded := with(func(o *Options) { o.ShardThreshold = thresh; o.Frontiers = full })
	fprev, err := (&Planner{Opt: fsharded}).Plan(sc)
	if err != nil {
		t.Fatalf("%s: frontier sharded plan: %v", gs.name, err)
	}
	added := ExtendFrontierSet(full, many, base, manyMask)
	p, err = (&Planner{Opt: fsharded}).PlanDelta(many, fprev, manyMask)
	cell("delta/many/frontier-extended", func(g *goldenHash) {
		g.int(int64(added))
		g.int(int64(full.Len()))
		g.outcome(p, err)
	})
	p, err = (&Planner{Opt: fsharded}).PlanDelta(one, fprev, oneMask)
	cell("delta/one/frontier-partial", func(g *goldenHash) { g.outcome(p, err) })

	// SurgeryBudget: abort points and cross-check shedding at fractions of
	// the unbudgeted ledger, on every route.
	for _, frac := range []struct {
		name     string
		num, den int64
	}{{"1of4", 1, 4}, {"1of2", 1, 2}, {"3of4", 3, 4}, {"9of10", 9, 10}, {"all", 1, 1}} {
		if monoRef != nil {
			b := monoRef.SurgeryOps * frac.num / frac.den
			p, err := (&Planner{Opt: with(func(o *Options) { o.SurgeryBudget = b })}).Plan(sc)
			cell("mono/budget-"+frac.name, func(g *goldenHash) { g.outcome(p, err) })
		}
		b := prev.SurgeryOps * frac.num / frac.den
		p, err := (&Planner{Opt: with(func(o *Options) { o.ShardThreshold = thresh; o.SurgeryBudget = b })}).Plan(sc)
		cell("sharded/budget-"+frac.name, func(g *goldenHash) { g.outcome(p, err) })
		if deltaOne != nil {
			b := deltaOne.SurgeryOps * frac.num / frac.den
			p, err := (&Planner{Opt: with(func(o *Options) { o.ShardThreshold = thresh; o.SurgeryBudget = b })}).PlanDelta(one, prev, oneMask)
			cell("delta/one/budget-"+frac.name, func(g *goldenHash) { g.outcome(p, err) })
		}
	}
	p, err = (&Planner{Opt: with(func(o *Options) { o.ShardThreshold = thresh; o.SurgeryBudget = int64(len(sc.Users)) / 2 })}).Plan(sc)
	cell("sharded/budget-pin", func(g *goldenHash) { g.outcome(p, err) })

	// Pinned assignments.
	if !gs.large {
		assign := make([]int, len(sc.Users))
		for ui := range assign {
			assign[ui] = (ui * 7) % len(sc.Servers)
		}
		p, err := PlanWithAssignment(sc, base, assign)
		cell("assigned/round-robin", func(g *goldenHash) { g.outcome(p, err) })
		for ui := range assign {
			if ui%4 == 1 {
				assign[ui] = -1
			}
		}
		p, err = PlanWithAssignment(sc, base, assign)
		cell("assigned/some-local", func(g *goldenHash) { g.outcome(p, err) })
	}

	// The online layer: drift, failover (one server down, then all down),
	// recovery — with and without frontier tables.
	for _, arm := range []struct {
		name string
		opt  Options
	}{{"plain", sharded}, {"frontier", fsharded}} {
		d, err := NewDispatcherWithPlan(sc, &Planner{Opt: arm.opt}, prev)
		if err != nil {
			t.Fatalf("%s: dispatcher: %v", gs.name, err)
		}
		rates := make([]float64, len(sc.Servers))
		for s := range rates {
			rates[s] = sc.meanUplink(s) * (0.35 + 0.4*float64(s%3))
		}
		rates[len(rates)-1] = 0 // keep the last link as planned
		up := make([]bool, len(sc.Servers))
		for s := range up {
			up[s] = s != 0
		}
		allDown := make([]bool, len(sc.Servers))
		allUp := make([]bool, len(sc.Servers))
		for s := range allUp {
			allUp[s] = true
		}
		steps := []struct {
			name  string
			up    []bool
			rates []float64
		}{
			{"drift", nil, rates},
			{"failover", up, nil},
			{"failover+drift", up, rates},
			{"blackout", allDown, nil},
			{"recover", allUp, nil},
		}
		for _, step := range steps {
			p, err := d.Observe(step.up, step.rates)
			cell("observe/"+arm.name+"/"+step.name, func(g *goldenHash) {
				g.outcome(p, err)
				g.report(d.Health())
			})
		}
	}

	// Ablation arms and allocator kinds ride the same state machinery.
	if gs.name == "contended" {
		arms := []struct {
			name string
			mod  func(o *Options)
		}{
			{"no-alloc", func(o *Options) { o.DisableAllocation = true }},
			{"no-surgery", func(o *Options) { o.DisableSurgery = true }},
			{"neither", func(o *Options) { o.DisableSurgery = true; o.DisableAllocation = true }},
			{"no-reassign", func(o *Options) { o.DisableReassignment = true }},
			{"no-probe", func(o *Options) { o.DisableProbe = true }},
			{"minsum", func(o *Options) { o.Allocator = MinSumAlloc }},
			{"minmax", func(o *Options) { o.Allocator = MinMaxAlloc }},
			{"no-cache", func(o *Options) { o.DisableSurgeryCache = true }},
			{"energy", func(o *Options) { o.DeviceEnergyBudgetJ = 2 }},
			{"iters-3", func(o *Options) { o.MaxIters = 3 }},
			{"floor-unmeetable", func(o *Options) { o.AccuracyFloor = 0.999 }},
		}
		for _, arm := range arms {
			mo := with(arm.mod)
			p, err := (&Planner{Opt: mo}).Plan(sc)
			cell("mono/"+arm.name, func(g *goldenHash) { g.outcome(p, err) })
			so := mo
			so.ShardThreshold = thresh
			sp, serr := (&Planner{Opt: so}).Plan(sc)
			cell("sharded/"+arm.name, func(g *goldenHash) { g.outcome(sp, serr) })
			if serr == nil {
				p, err = (&Planner{Opt: so}).PlanDelta(one, sp, oneMask)
				cell("delta/one/"+arm.name, func(g *goldenHash) { g.outcome(p, err) })
			}
		}
	}

	// Published metrics: one registry across a plan, a sharded plan, a delta
	// replan and an observe round.
	reg := telemetry.NewRegistry()
	mo := with(func(o *Options) { o.Metrics = reg; o.Frontiers = full })
	if !gs.large {
		if _, err := (&Planner{Opt: mo}).Plan(sc); err != nil {
			t.Fatalf("%s: instrumented plan: %v", gs.name, err)
		}
	}
	mo.ShardThreshold = thresh
	ip := &Planner{Opt: mo}
	mp, err := ip.Plan(sc)
	if err != nil {
		t.Fatalf("%s: instrumented sharded plan: %v", gs.name, err)
	}
	if _, err := ip.PlanDelta(one, mp, oneMask); err != nil {
		t.Fatalf("%s: instrumented delta: %v", gs.name, err)
	}
	d, err := NewDispatcherWithPlan(sc, ip, mp)
	if err != nil {
		t.Fatalf("%s: instrumented dispatcher: %v", gs.name, err)
	}
	d.Instrument(reg)
	rates := make([]float64, len(sc.Servers))
	rates[0] = sc.meanUplink(0) * 0.5
	if _, err := d.ObserveUplinks(rates); err != nil {
		t.Fatalf("%s: instrumented observe: %v", gs.name, err)
	}
	cell("metrics", func(g *goldenHash) { g.registry(reg) })
}

// TestGoldenPlanDigests compares every cell against the recorded digests.
func TestGoldenPlanDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler may fuse multiply-adds on other architectures, which
		// legitimately moves float bits; the digests were recorded on amd64.
		t.Skip("golden digests are recorded on amd64")
	}
	seen := make(map[string]bool)
	for _, gs := range goldenScenarios(t) {
		for _, par := range []int{1, 4} {
			goldenCells(t, gs, par, func(cell string, g *goldenHash) {
				name := fmt.Sprintf("%s/par%d/%s", gs.name, par, cell)
				seen[name] = true
				got := g.sum()
				if want, ok := goldenDigests[name]; !ok {
					t.Errorf("golden %q: got %s, no recorded digest", name, got)
				} else if got != want {
					t.Errorf("golden %q: got %s, want %s", name, got, want)
				}
			})
		}
	}
	for name := range goldenDigests {
		if !seen[name] {
			t.Errorf("golden %q: recorded digest has no cell", name)
		}
	}
}

// goldenDigests holds one digest per cell, recorded on the parent of the
// change that unified the planning core (see the file comment).
var goldenDigests = map[string]string{
	"contended/par1/mono":                            "b18fc986d0b14c6ac8448a98",
	"contended/par1/sharded":                         "0a162598c434fc22bd505d74",
	"contended/par1/frontier-tables":                 "05b7e72c74f3ea58cf090c4c",
	"contended/par1/mono/frontier-full":              "28448cc2c585221391a49736",
	"contended/par1/sharded/frontier-full":           "d7f0e9d421a2dedb227428a9",
	"contended/par1/mono/frontier-empty":             "fc01f881e47e4e463774bffd",
	"contended/par1/sharded/frontier-empty":          "dc271572a88b35d771819cf3",
	"contended/par1/delta/none":                      "0a26ca6e991ea87364904678",
	"contended/par1/delta/one":                       "1aeca5098e5502411b061ff8",
	"contended/par1/delta/many":                      "5c5f5fc3a6da16f9aef2165c",
	"contended/par1/delta/unreconciled/one":          "c32bd9f695b93f2ee2dea89a",
	"contended/par1/delta/unreconciled/many":         "447ac52f962595f044c04d47",
	"contended/par1/delta/unreconciled/all":          "6e5290e8d2dbd92310d947ab",
	"contended/par1/delta/many/frontier-extended":    "7b8fe70b14dae6cf7ff22a07",
	"contended/par1/delta/one/frontier-partial":      "6bdf218022b6d7318a49e2cc",
	"contended/par1/mono/budget-1of4":                "f470d886fc3c23b7c8405228",
	"contended/par1/sharded/budget-1of4":             "4a43b6b897c002fb7d18a74b",
	"contended/par1/delta/one/budget-1of4":           "57579675cf0b933a4214e3d8",
	"contended/par1/mono/budget-1of2":                "4d0478daa302cc75d425a034",
	"contended/par1/sharded/budget-1of2":             "7aace4a9cfc5d89d8419909f",
	"contended/par1/delta/one/budget-1of2":           "41aeada9103408b21877e488",
	"contended/par1/mono/budget-3of4":                "bb10a5ae69d98d2949475462",
	"contended/par1/sharded/budget-3of4":             "7aace4a9cfc5d89d8419909f",
	"contended/par1/delta/one/budget-3of4":           "41aeada9103408b21877e488",
	"contended/par1/mono/budget-9of10":               "ca2f60f39d77bac9e58cc1e1",
	"contended/par1/sharded/budget-9of10":            "7aace4a9cfc5d89d8419909f",
	"contended/par1/delta/one/budget-9of10":          "41aeada9103408b21877e488",
	"contended/par1/mono/budget-all":                 "b18fc986d0b14c6ac8448a98",
	"contended/par1/sharded/budget-all":              "0a162598c434fc22bd505d74",
	"contended/par1/delta/one/budget-all":            "1aeca5098e5502411b061ff8",
	"contended/par1/sharded/budget-pin":              "d987919965e1c3de27d21e75",
	"contended/par1/assigned/round-robin":            "1ddcc7cbd5c4507033c6cd5a",
	"contended/par1/assigned/some-local":             "090e99076c334a7607fc3533",
	"contended/par1/observe/plain/drift":             "dc07b45c73e8da9d7e258de0",
	"contended/par1/observe/plain/failover":          "ac29583b8e02aaaad315232e",
	"contended/par1/observe/plain/failover+drift":    "83f71644f5844f49383d85ab",
	"contended/par1/observe/plain/blackout":          "bcd4cd1cff2069adfb7e1b54",
	"contended/par1/observe/plain/recover":           "cd4c7db87d60170b692ce689",
	"contended/par1/observe/frontier/drift":          "6dcf0b199f56ac501c6d4591",
	"contended/par1/observe/frontier/failover":       "7fa58af734aaa4b270a41c8c",
	"contended/par1/observe/frontier/failover+drift": "555017f687dee2286dce3158",
	"contended/par1/observe/frontier/blackout":       "d336b09503406f7b3016b92b",
	"contended/par1/observe/frontier/recover":        "cd4c7db87d60170b692ce689",
	"contended/par1/mono/no-alloc":                   "0d345b8f44ca1b28024d7f36",
	"contended/par1/sharded/no-alloc":                "4913fbb196918dadf1fa6320",
	"contended/par1/delta/one/no-alloc":              "d65c39522e0b0bffe55da8b8",
	"contended/par1/mono/no-surgery":                 "9f8629a7824c896c06e93ce5",
	"contended/par1/sharded/no-surgery":              "5bd66529c4f5018d106935fb",
	"contended/par1/delta/one/no-surgery":            "e8ca6ce3b1ea03f7885e6237",
	"contended/par1/mono/neither":                    "36dfb0310cff4964117dccc2",
	"contended/par1/sharded/neither":                 "5ff38680e0fe1e088684df2e",
	"contended/par1/delta/one/neither":               "720bf35f3d102a84d9d9c3c6",
	"contended/par1/mono/no-reassign":                "a5cfc9531c412edde6beca38",
	"contended/par1/sharded/no-reassign":             "75f1b0385474dc08f87018ff",
	"contended/par1/delta/one/no-reassign":           "5d0fab1f28ff7e800b351386",
	"contended/par1/mono/no-probe":                   "9459956c630866b58a5cd721",
	"contended/par1/sharded/no-probe":                "9d28cd5fc246ba7cc1643335",
	"contended/par1/delta/one/no-probe":              "dbffd3fc95194a21ed94113e",
	"contended/par1/mono/minsum":                     "94113da9e36a054ca51a8feb",
	"contended/par1/sharded/minsum":                  "0a162598c434fc22bd505d74",
	"contended/par1/delta/one/minsum":                "1aeca5098e5502411b061ff8",
	"contended/par1/mono/minmax":                     "8b60b2a05dd644fc6d412a4c",
	"contended/par1/sharded/minmax":                  "151c11fc2110e7ade1644960",
	"contended/par1/delta/one/minmax":                "9363d038e5b3728375c09555",
	"contended/par1/mono/no-cache":                   "64538eb17bb60772794e14a0",
	"contended/par1/sharded/no-cache":                "32f820fee0ab6d6d3f5030b6",
	"contended/par1/delta/one/no-cache":              "0433d33742081c26191a9a8c",
	"contended/par1/mono/energy":                     "b18fc986d0b14c6ac8448a98",
	"contended/par1/sharded/energy":                  "0a162598c434fc22bd505d74",
	"contended/par1/delta/one/energy":                "1aeca5098e5502411b061ff8",
	"contended/par1/mono/iters-3":                    "b18fc986d0b14c6ac8448a98",
	"contended/par1/sharded/iters-3":                 "0a162598c434fc22bd505d74",
	"contended/par1/delta/one/iters-3":               "1aeca5098e5502411b061ff8",
	"contended/par1/mono/floor-unmeetable":           "6e3cc5eec880661b46cfd3bd",
	"contended/par1/sharded/floor-unmeetable":        "5de934aa8e31fabb8255d64a",
	"contended/par1/metrics":                         "5095eb5e06ad72316a4b031a",
	"contended/par4/mono":                            "b18fc986d0b14c6ac8448a98",
	"contended/par4/sharded":                         "0a162598c434fc22bd505d74",
	"contended/par4/frontier-tables":                 "05b7e72c74f3ea58cf090c4c",
	"contended/par4/mono/frontier-full":              "28448cc2c585221391a49736",
	"contended/par4/sharded/frontier-full":           "d7f0e9d421a2dedb227428a9",
	"contended/par4/mono/frontier-empty":             "fc01f881e47e4e463774bffd",
	"contended/par4/sharded/frontier-empty":          "dc271572a88b35d771819cf3",
	"contended/par4/delta/none":                      "0a26ca6e991ea87364904678",
	"contended/par4/delta/one":                       "1aeca5098e5502411b061ff8",
	"contended/par4/delta/many":                      "5c5f5fc3a6da16f9aef2165c",
	"contended/par4/delta/unreconciled/one":          "c32bd9f695b93f2ee2dea89a",
	"contended/par4/delta/unreconciled/many":         "447ac52f962595f044c04d47",
	"contended/par4/delta/unreconciled/all":          "6e5290e8d2dbd92310d947ab",
	"contended/par4/delta/many/frontier-extended":    "7b8fe70b14dae6cf7ff22a07",
	"contended/par4/delta/one/frontier-partial":      "6bdf218022b6d7318a49e2cc",
	"contended/par4/mono/budget-1of4":                "f470d886fc3c23b7c8405228",
	"contended/par4/sharded/budget-1of4":             "4a43b6b897c002fb7d18a74b",
	"contended/par4/delta/one/budget-1of4":           "57579675cf0b933a4214e3d8",
	"contended/par4/mono/budget-1of2":                "4d0478daa302cc75d425a034",
	"contended/par4/sharded/budget-1of2":             "7aace4a9cfc5d89d8419909f",
	"contended/par4/delta/one/budget-1of2":           "41aeada9103408b21877e488",
	"contended/par4/mono/budget-3of4":                "bb10a5ae69d98d2949475462",
	"contended/par4/sharded/budget-3of4":             "7aace4a9cfc5d89d8419909f",
	"contended/par4/delta/one/budget-3of4":           "41aeada9103408b21877e488",
	"contended/par4/mono/budget-9of10":               "ca2f60f39d77bac9e58cc1e1",
	"contended/par4/sharded/budget-9of10":            "7aace4a9cfc5d89d8419909f",
	"contended/par4/delta/one/budget-9of10":          "41aeada9103408b21877e488",
	"contended/par4/mono/budget-all":                 "b18fc986d0b14c6ac8448a98",
	"contended/par4/sharded/budget-all":              "0a162598c434fc22bd505d74",
	"contended/par4/delta/one/budget-all":            "1aeca5098e5502411b061ff8",
	"contended/par4/sharded/budget-pin":              "d987919965e1c3de27d21e75",
	"contended/par4/assigned/round-robin":            "1ddcc7cbd5c4507033c6cd5a",
	"contended/par4/assigned/some-local":             "090e99076c334a7607fc3533",
	"contended/par4/observe/plain/drift":             "dc07b45c73e8da9d7e258de0",
	"contended/par4/observe/plain/failover":          "ac29583b8e02aaaad315232e",
	"contended/par4/observe/plain/failover+drift":    "83f71644f5844f49383d85ab",
	"contended/par4/observe/plain/blackout":          "bcd4cd1cff2069adfb7e1b54",
	"contended/par4/observe/plain/recover":           "cd4c7db87d60170b692ce689",
	"contended/par4/observe/frontier/drift":          "6dcf0b199f56ac501c6d4591",
	"contended/par4/observe/frontier/failover":       "7fa58af734aaa4b270a41c8c",
	"contended/par4/observe/frontier/failover+drift": "555017f687dee2286dce3158",
	"contended/par4/observe/frontier/blackout":       "d336b09503406f7b3016b92b",
	"contended/par4/observe/frontier/recover":        "cd4c7db87d60170b692ce689",
	"contended/par4/mono/no-alloc":                   "0d345b8f44ca1b28024d7f36",
	"contended/par4/sharded/no-alloc":                "4913fbb196918dadf1fa6320",
	"contended/par4/delta/one/no-alloc":              "d65c39522e0b0bffe55da8b8",
	"contended/par4/mono/no-surgery":                 "9f8629a7824c896c06e93ce5",
	"contended/par4/sharded/no-surgery":              "5bd66529c4f5018d106935fb",
	"contended/par4/delta/one/no-surgery":            "e8ca6ce3b1ea03f7885e6237",
	"contended/par4/mono/neither":                    "36dfb0310cff4964117dccc2",
	"contended/par4/sharded/neither":                 "5ff38680e0fe1e088684df2e",
	"contended/par4/delta/one/neither":               "720bf35f3d102a84d9d9c3c6",
	"contended/par4/mono/no-reassign":                "a5cfc9531c412edde6beca38",
	"contended/par4/sharded/no-reassign":             "75f1b0385474dc08f87018ff",
	"contended/par4/delta/one/no-reassign":           "5d0fab1f28ff7e800b351386",
	"contended/par4/mono/no-probe":                   "9459956c630866b58a5cd721",
	"contended/par4/sharded/no-probe":                "9d28cd5fc246ba7cc1643335",
	"contended/par4/delta/one/no-probe":              "dbffd3fc95194a21ed94113e",
	"contended/par4/mono/minsum":                     "94113da9e36a054ca51a8feb",
	"contended/par4/sharded/minsum":                  "0a162598c434fc22bd505d74",
	"contended/par4/delta/one/minsum":                "1aeca5098e5502411b061ff8",
	"contended/par4/mono/minmax":                     "8b60b2a05dd644fc6d412a4c",
	"contended/par4/sharded/minmax":                  "151c11fc2110e7ade1644960",
	"contended/par4/delta/one/minmax":                "9363d038e5b3728375c09555",
	"contended/par4/mono/no-cache":                   "64538eb17bb60772794e14a0",
	"contended/par4/sharded/no-cache":                "32f820fee0ab6d6d3f5030b6",
	"contended/par4/delta/one/no-cache":              "0433d33742081c26191a9a8c",
	"contended/par4/mono/energy":                     "b18fc986d0b14c6ac8448a98",
	"contended/par4/sharded/energy":                  "0a162598c434fc22bd505d74",
	"contended/par4/delta/one/energy":                "1aeca5098e5502411b061ff8",
	"contended/par4/mono/iters-3":                    "b18fc986d0b14c6ac8448a98",
	"contended/par4/sharded/iters-3":                 "0a162598c434fc22bd505d74",
	"contended/par4/delta/one/iters-3":               "1aeca5098e5502411b061ff8",
	"contended/par4/mono/floor-unmeetable":           "6e3cc5eec880661b46cfd3bd",
	"contended/par4/sharded/floor-unmeetable":        "5de934aa8e31fabb8255d64a",
	"contended/par4/metrics":                         "5095eb5e06ad72316a4b031a",
	"tight/par1/mono":                                "6346ee5d458a3c5fc962697e",
	"tight/par1/sharded":                             "662b42dc44e547b9cb208e31",
	"tight/par1/frontier-tables":                     "1f64c8d55d272740648a3876",
	"tight/par1/mono/frontier-full":                  "730a55de560b858b98ba6f7a",
	"tight/par1/sharded/frontier-full":               "9eeae050421a28e145e926cc",
	"tight/par1/mono/frontier-empty":                 "c783ccb0e2937c491a1ad382",
	"tight/par1/sharded/frontier-empty":              "4c9ff7b2c768ac6691bf7dc2",
	"tight/par1/delta/none":                          "00e3dcc2318dce937604362b",
	"tight/par1/delta/one":                           "f29087b8737ae6d2ed70a8b4",
	"tight/par1/delta/many":                          "a6bd05732566aa99793dd95d",
	"tight/par1/delta/unreconciled/one":              "f29087b8737ae6d2ed70a8b4",
	"tight/par1/delta/unreconciled/many":             "a6bd05732566aa99793dd95d",
	"tight/par1/delta/unreconciled/all":              "a93dea5c8033e3bab9ebad9d",
	"tight/par1/delta/many/frontier-extended":        "d254d877910c9e91fbaff2ea",
	"tight/par1/delta/one/frontier-partial":          "6a6f0b2b85a98d6f98059a24",
	"tight/par1/mono/budget-1of4":                    "6a2bc6950a3f79b3b15fa459",
	"tight/par1/sharded/budget-1of4":                 "0610184f9c38c5e61df057e5",
	"tight/par1/delta/one/budget-1of4":               "683ad275d28f23a92399a5ad",
	"tight/par1/mono/budget-1of2":                    "40de942535a1b37270e09ca0",
	"tight/par1/sharded/budget-1of2":                 "e5d4adfc502be20d3936e2cd",
	"tight/par1/delta/one/budget-1of2":               "683ad275d28f23a92399a5ad",
	"tight/par1/mono/budget-3of4":                    "2ec614170f1f396df44e808e",
	"tight/par1/sharded/budget-3of4":                 "e5d4adfc502be20d3936e2cd",
	"tight/par1/delta/one/budget-3of4":               "683ad275d28f23a92399a5ad",
	"tight/par1/mono/budget-9of10":                   "73531f9bca1703489ad51dbd",
	"tight/par1/sharded/budget-9of10":                "e5d4adfc502be20d3936e2cd",
	"tight/par1/delta/one/budget-9of10":              "683ad275d28f23a92399a5ad",
	"tight/par1/mono/budget-all":                     "6346ee5d458a3c5fc962697e",
	"tight/par1/sharded/budget-all":                  "662b42dc44e547b9cb208e31",
	"tight/par1/delta/one/budget-all":                "f29087b8737ae6d2ed70a8b4",
	"tight/par1/sharded/budget-pin":                  "8348df80c44feb3b4250fecb",
	"tight/par1/assigned/round-robin":                "c14207585de8170f95c4e8d9",
	"tight/par1/assigned/some-local":                 "e3a4ba613c56f2bc7d65b083",
	"tight/par1/observe/plain/drift":                 "40dcc367e3ddcddd26c8c1df",
	"tight/par1/observe/plain/failover":              "3679e4107a1f8eaddfaa1994",
	"tight/par1/observe/plain/failover+drift":        "a8082ccf88e828f7add7139e",
	"tight/par1/observe/plain/blackout":              "02548559d9ac97099d535502",
	"tight/par1/observe/plain/recover":               "32a353a2b2a42f4f053621f5",
	"tight/par1/observe/frontier/drift":              "7632cd5ab58421b56f3ae3e8",
	"tight/par1/observe/frontier/failover":           "0b8a2160e5b09f1cbd993ce5",
	"tight/par1/observe/frontier/failover+drift":     "b96df17c1853ab67c5caaf01",
	"tight/par1/observe/frontier/blackout":           "bf83d2d8d469e055ec79e59f",
	"tight/par1/observe/frontier/recover":            "32a353a2b2a42f4f053621f5",
	"tight/par1/metrics":                             "290e0d6ca1fb32cfadffcd84",
	"tight/par4/mono":                                "6346ee5d458a3c5fc962697e",
	"tight/par4/sharded":                             "662b42dc44e547b9cb208e31",
	"tight/par4/frontier-tables":                     "1f64c8d55d272740648a3876",
	"tight/par4/mono/frontier-full":                  "730a55de560b858b98ba6f7a",
	"tight/par4/sharded/frontier-full":               "9eeae050421a28e145e926cc",
	"tight/par4/mono/frontier-empty":                 "c783ccb0e2937c491a1ad382",
	"tight/par4/sharded/frontier-empty":              "4c9ff7b2c768ac6691bf7dc2",
	"tight/par4/delta/none":                          "00e3dcc2318dce937604362b",
	"tight/par4/delta/one":                           "f29087b8737ae6d2ed70a8b4",
	"tight/par4/delta/many":                          "a6bd05732566aa99793dd95d",
	"tight/par4/delta/unreconciled/one":              "f29087b8737ae6d2ed70a8b4",
	"tight/par4/delta/unreconciled/many":             "a6bd05732566aa99793dd95d",
	"tight/par4/delta/unreconciled/all":              "a93dea5c8033e3bab9ebad9d",
	"tight/par4/delta/many/frontier-extended":        "d254d877910c9e91fbaff2ea",
	"tight/par4/delta/one/frontier-partial":          "6a6f0b2b85a98d6f98059a24",
	"tight/par4/mono/budget-1of4":                    "6a2bc6950a3f79b3b15fa459",
	"tight/par4/sharded/budget-1of4":                 "0610184f9c38c5e61df057e5",
	"tight/par4/delta/one/budget-1of4":               "683ad275d28f23a92399a5ad",
	"tight/par4/mono/budget-1of2":                    "40de942535a1b37270e09ca0",
	"tight/par4/sharded/budget-1of2":                 "e5d4adfc502be20d3936e2cd",
	"tight/par4/delta/one/budget-1of2":               "683ad275d28f23a92399a5ad",
	"tight/par4/mono/budget-3of4":                    "2ec614170f1f396df44e808e",
	"tight/par4/sharded/budget-3of4":                 "e5d4adfc502be20d3936e2cd",
	"tight/par4/delta/one/budget-3of4":               "683ad275d28f23a92399a5ad",
	"tight/par4/mono/budget-9of10":                   "73531f9bca1703489ad51dbd",
	"tight/par4/sharded/budget-9of10":                "e5d4adfc502be20d3936e2cd",
	"tight/par4/delta/one/budget-9of10":              "683ad275d28f23a92399a5ad",
	"tight/par4/mono/budget-all":                     "6346ee5d458a3c5fc962697e",
	"tight/par4/sharded/budget-all":                  "662b42dc44e547b9cb208e31",
	"tight/par4/delta/one/budget-all":                "f29087b8737ae6d2ed70a8b4",
	"tight/par4/sharded/budget-pin":                  "8348df80c44feb3b4250fecb",
	"tight/par4/assigned/round-robin":                "c14207585de8170f95c4e8d9",
	"tight/par4/assigned/some-local":                 "e3a4ba613c56f2bc7d65b083",
	"tight/par4/observe/plain/drift":                 "40dcc367e3ddcddd26c8c1df",
	"tight/par4/observe/plain/failover":              "3679e4107a1f8eaddfaa1994",
	"tight/par4/observe/plain/failover+drift":        "a8082ccf88e828f7add7139e",
	"tight/par4/observe/plain/blackout":              "02548559d9ac97099d535502",
	"tight/par4/observe/plain/recover":               "32a353a2b2a42f4f053621f5",
	"tight/par4/observe/frontier/drift":              "7632cd5ab58421b56f3ae3e8",
	"tight/par4/observe/frontier/failover":           "0b8a2160e5b09f1cbd993ce5",
	"tight/par4/observe/frontier/failover+drift":     "b96df17c1853ab67c5caaf01",
	"tight/par4/observe/frontier/blackout":           "bf83d2d8d469e055ec79e59f",
	"tight/par4/observe/frontier/recover":            "32a353a2b2a42f4f053621f5",
	"tight/par4/metrics":                             "290e0d6ca1fb32cfadffcd84",
	"offload/par1/mono":                              "618c777a113cbb05af3486e1",
	"offload/par1/sharded":                           "3d510e8bc72f64875b7e07fa",
	"offload/par1/frontier-tables":                   "f3c930da8b750575b149fc0b",
	"offload/par1/mono/frontier-full":                "3f1f5aea3955b9213cbc8d26",
	"offload/par1/sharded/frontier-full":             "eb6c5198ccfdd43d27c6884a",
	"offload/par1/mono/frontier-empty":               "351ba93ce3c3aea46cf9942f",
	"offload/par1/sharded/frontier-empty":            "c8bd90575b4b3b3d55be106b",
	"offload/par1/delta/none":                        "4aa72379b4a7b0d10b48ff62",
	"offload/par1/delta/one":                         "bcd38bcfa0eebca14fad6249",
	"offload/par1/delta/many":                        "5e5093223356db4d4888917c",
	"offload/par1/delta/unreconciled/one":            "bcd38bcfa0eebca14fad6249",
	"offload/par1/delta/unreconciled/many":           "5e5093223356db4d4888917c",
	"offload/par1/delta/unreconciled/all":            "2c98fa8285359fa0d57a3163",
	"offload/par1/delta/many/frontier-extended":      "a8177b70d5351af435507d2a",
	"offload/par1/delta/one/frontier-partial":        "7703a187dac7faf62834d91b",
	"offload/par1/mono/budget-1of4":                  "6a2bc6950a3f79b3b15fa459",
	"offload/par1/sharded/budget-1of4":               "7e47f693e12d0240cc7574e8",
	"offload/par1/delta/one/budget-1of4":             "b6ba7e68d81324f9e758b840",
	"offload/par1/mono/budget-1of2":                  "40de942535a1b37270e09ca0",
	"offload/par1/sharded/budget-1of2":               "f0692ebe43621be0ce6e1a4a",
	"offload/par1/delta/one/budget-1of2":             "9edf230a9e1dc935843e7fde",
	"offload/par1/mono/budget-3of4":                  "2ec614170f1f396df44e808e",
	"offload/par1/sharded/budget-3of4":               "d2e8e5d463bdf2850162be8b",
	"offload/par1/delta/one/budget-3of4":             "9edf230a9e1dc935843e7fde",
	"offload/par1/mono/budget-9of10":                 "73531f9bca1703489ad51dbd",
	"offload/par1/sharded/budget-9of10":              "d2e8e5d463bdf2850162be8b",
	"offload/par1/delta/one/budget-9of10":            "9edf230a9e1dc935843e7fde",
	"offload/par1/mono/budget-all":                   "618c777a113cbb05af3486e1",
	"offload/par1/sharded/budget-all":                "3d510e8bc72f64875b7e07fa",
	"offload/par1/delta/one/budget-all":              "bcd38bcfa0eebca14fad6249",
	"offload/par1/sharded/budget-pin":                "8348df80c44feb3b4250fecb",
	"offload/par1/assigned/round-robin":              "bd0e3638383dc8f194055adb",
	"offload/par1/assigned/some-local":               "006892a24311a47b6dca193d",
	"offload/par1/observe/plain/drift":               "bd2a8cf71526daca867a0284",
	"offload/par1/observe/plain/failover":            "14bab4d213906a5cb87149bb",
	"offload/par1/observe/plain/failover+drift":      "808c790194ffa46e78b6d6f4",
	"offload/par1/observe/plain/blackout":            "0dcc8ab15f5c8239a155708f",
	"offload/par1/observe/plain/recover":             "b5101505105b0603ac4f6803",
	"offload/par1/observe/frontier/drift":            "92ed89d90612bb31e8ff145b",
	"offload/par1/observe/frontier/failover":         "1e0e8bebcd4bee8ef057e01b",
	"offload/par1/observe/frontier/failover+drift":   "fdacd110dc9e8a57d385f104",
	"offload/par1/observe/frontier/blackout":         "093c7d48c6ad1e6f853b1534",
	"offload/par1/observe/frontier/recover":          "b5101505105b0603ac4f6803",
	"offload/par1/metrics":                           "bee00cdd7a4e54efe23eabbc",
	"offload/par4/mono":                              "618c777a113cbb05af3486e1",
	"offload/par4/sharded":                           "3d510e8bc72f64875b7e07fa",
	"offload/par4/frontier-tables":                   "f3c930da8b750575b149fc0b",
	"offload/par4/mono/frontier-full":                "3f1f5aea3955b9213cbc8d26",
	"offload/par4/sharded/frontier-full":             "eb6c5198ccfdd43d27c6884a",
	"offload/par4/mono/frontier-empty":               "351ba93ce3c3aea46cf9942f",
	"offload/par4/sharded/frontier-empty":            "c8bd90575b4b3b3d55be106b",
	"offload/par4/delta/none":                        "4aa72379b4a7b0d10b48ff62",
	"offload/par4/delta/one":                         "bcd38bcfa0eebca14fad6249",
	"offload/par4/delta/many":                        "5e5093223356db4d4888917c",
	"offload/par4/delta/unreconciled/one":            "bcd38bcfa0eebca14fad6249",
	"offload/par4/delta/unreconciled/many":           "5e5093223356db4d4888917c",
	"offload/par4/delta/unreconciled/all":            "2c98fa8285359fa0d57a3163",
	"offload/par4/delta/many/frontier-extended":      "a8177b70d5351af435507d2a",
	"offload/par4/delta/one/frontier-partial":        "7703a187dac7faf62834d91b",
	"offload/par4/mono/budget-1of4":                  "6a2bc6950a3f79b3b15fa459",
	"offload/par4/sharded/budget-1of4":               "7e47f693e12d0240cc7574e8",
	"offload/par4/delta/one/budget-1of4":             "b6ba7e68d81324f9e758b840",
	"offload/par4/mono/budget-1of2":                  "40de942535a1b37270e09ca0",
	"offload/par4/sharded/budget-1of2":               "f0692ebe43621be0ce6e1a4a",
	"offload/par4/delta/one/budget-1of2":             "9edf230a9e1dc935843e7fde",
	"offload/par4/mono/budget-3of4":                  "2ec614170f1f396df44e808e",
	"offload/par4/sharded/budget-3of4":               "d2e8e5d463bdf2850162be8b",
	"offload/par4/delta/one/budget-3of4":             "9edf230a9e1dc935843e7fde",
	"offload/par4/mono/budget-9of10":                 "73531f9bca1703489ad51dbd",
	"offload/par4/sharded/budget-9of10":              "d2e8e5d463bdf2850162be8b",
	"offload/par4/delta/one/budget-9of10":            "9edf230a9e1dc935843e7fde",
	"offload/par4/mono/budget-all":                   "618c777a113cbb05af3486e1",
	"offload/par4/sharded/budget-all":                "3d510e8bc72f64875b7e07fa",
	"offload/par4/delta/one/budget-all":              "bcd38bcfa0eebca14fad6249",
	"offload/par4/sharded/budget-pin":                "8348df80c44feb3b4250fecb",
	"offload/par4/assigned/round-robin":              "bd0e3638383dc8f194055adb",
	"offload/par4/assigned/some-local":               "006892a24311a47b6dca193d",
	"offload/par4/observe/plain/drift":               "bd2a8cf71526daca867a0284",
	"offload/par4/observe/plain/failover":            "14bab4d213906a5cb87149bb",
	"offload/par4/observe/plain/failover+drift":      "808c790194ffa46e78b6d6f4",
	"offload/par4/observe/plain/blackout":            "0dcc8ab15f5c8239a155708f",
	"offload/par4/observe/plain/recover":             "b5101505105b0603ac4f6803",
	"offload/par4/observe/frontier/drift":            "92ed89d90612bb31e8ff145b",
	"offload/par4/observe/frontier/failover":         "1e0e8bebcd4bee8ef057e01b",
	"offload/par4/observe/frontier/failover+drift":   "fdacd110dc9e8a57d385f104",
	"offload/par4/observe/frontier/blackout":         "093c7d48c6ad1e6f853b1534",
	"offload/par4/observe/frontier/recover":          "b5101505105b0603ac4f6803",
	"offload/par4/metrics":                           "bee00cdd7a4e54efe23eabbc",
	"wide-a/par1/mono":                               "733bb6cd197fa96119bf77c8",
	"wide-a/par1/sharded":                            "cf81a64165628788fb6716ae",
	"wide-a/par1/frontier-tables":                    "31559d86b9f33652b9e34a79",
	"wide-a/par1/mono/frontier-full":                 "42fbd5d965c5621d9dd0d4c7",
	"wide-a/par1/sharded/frontier-full":              "db7c089ee2121e93da28ae9c",
	"wide-a/par1/mono/frontier-empty":                "19bbd6c379f5fb4cc1e0983c",
	"wide-a/par1/sharded/frontier-empty":             "fe8f1faa4ef30806b55afe23",
	"wide-a/par1/delta/none":                         "d038b863e98373e436d1710b",
	"wide-a/par1/delta/one":                          "02cfc64025e229d257b8d493",
	"wide-a/par1/delta/many":                         "67cfd0ec6ca37a8057538d92",
	"wide-a/par1/delta/unreconciled/one":             "dd4a82e9b996cac7c12cd38c",
	"wide-a/par1/delta/unreconciled/many":            "0c50a3867ee6195028d25cc2",
	"wide-a/par1/delta/unreconciled/all":             "aaa8d7d2fa024318e84e518d",
	"wide-a/par1/delta/many/frontier-extended":       "801824827b79cbf83bb3df10",
	"wide-a/par1/delta/one/frontier-partial":         "19053df542570115aa3bd034",
	"wide-a/par1/mono/budget-1of4":                   "72249add58bc0c1dd71c1530",
	"wide-a/par1/sharded/budget-1of4":                "e49b0c08ca6aaba2b5b312d7",
	"wide-a/par1/delta/one/budget-1of4":              "149a13c83e44cf9727c1fce0",
	"wide-a/par1/mono/budget-1of2":                   "019753f4280fbd0082eb479a",
	"wide-a/par1/sharded/budget-1of2":                "7f23cdae1ecd4e1757512791",
	"wide-a/par1/delta/one/budget-1of2":              "93b2054550b463bfefcd7459",
	"wide-a/par1/mono/budget-3of4":                   "12b70b9064a2f3ce4ca98ade",
	"wide-a/par1/sharded/budget-3of4":                "7f23cdae1ecd4e1757512791",
	"wide-a/par1/delta/one/budget-3of4":              "93b2054550b463bfefcd7459",
	"wide-a/par1/mono/budget-9of10":                  "df5890b020870928eb9d7c7e",
	"wide-a/par1/sharded/budget-9of10":               "7f23cdae1ecd4e1757512791",
	"wide-a/par1/delta/one/budget-9of10":             "93b2054550b463bfefcd7459",
	"wide-a/par1/mono/budget-all":                    "733bb6cd197fa96119bf77c8",
	"wide-a/par1/sharded/budget-all":                 "cf81a64165628788fb6716ae",
	"wide-a/par1/delta/one/budget-all":               "02cfc64025e229d257b8d493",
	"wide-a/par1/sharded/budget-pin":                 "8d319655ebeea54f4f5d9fd7",
	"wide-a/par1/assigned/round-robin":               "4c4f9310bfb5e18e6de4129e",
	"wide-a/par1/assigned/some-local":                "b4f10c75835e228f5eaeda8a",
	"wide-a/par1/observe/plain/drift":                "8fb044cbae4c8d2d8503cc40",
	"wide-a/par1/observe/plain/failover":             "be4ee9498c072f0db05b187f",
	"wide-a/par1/observe/plain/failover+drift":       "af54018534e935e6e7dff168",
	"wide-a/par1/observe/plain/blackout":             "180d919ec0c373a922271719",
	"wide-a/par1/observe/plain/recover":              "2b94e4e0e1511ec2ef81a14c",
	"wide-a/par1/observe/frontier/drift":             "9950fa9b6c7397f617f680f2",
	"wide-a/par1/observe/frontier/failover":          "1180c4af8ddc4a3902422433",
	"wide-a/par1/observe/frontier/failover+drift":    "e496f6a426f7c25b3fd7fc2c",
	"wide-a/par1/observe/frontier/blackout":          "3998432469263339d8c83b9a",
	"wide-a/par1/observe/frontier/recover":           "2b94e4e0e1511ec2ef81a14c",
	"wide-a/par1/metrics":                            "c4b41ccdfd2e8e7aba9771a9",
	"wide-a/par4/mono":                               "44791643debb93ec548a65e4",
	"wide-a/par4/sharded":                            "205245a14f411f3a6c116539",
	"wide-a/par4/frontier-tables":                    "31559d86b9f33652b9e34a79",
	"wide-a/par4/mono/frontier-full":                 "c4d87c7f00097abb7fd3848f",
	"wide-a/par4/sharded/frontier-full":              "bbe888f82633b03c8f0101b7",
	"wide-a/par4/mono/frontier-empty":                "bdf84cd9042f6914e69f1310",
	"wide-a/par4/sharded/frontier-empty":             "617dca4b9d65d88dea8f165f",
	"wide-a/par4/delta/none":                         "d038b863e98373e436d1710b",
	"wide-a/par4/delta/one":                          "2dcb360d9a1d9ae77c83bb24",
	"wide-a/par4/delta/many":                         "90ede7c7add39a33382a9a7b",
	"wide-a/par4/delta/unreconciled/one":             "de6dcabecacdcac35a0a8d30",
	"wide-a/par4/delta/unreconciled/many":            "fe10a409ed60529b531168a5",
	"wide-a/par4/delta/unreconciled/all":             "dd6e3bc278d331871d78cb33",
	"wide-a/par4/delta/many/frontier-extended":       "dd56ab80708c82237e61a050",
	"wide-a/par4/delta/one/frontier-partial":         "757a628f6ee338e60d7f2548",
	"wide-a/par4/mono/budget-1of4":                   "72249add58bc0c1dd71c1530",
	"wide-a/par4/sharded/budget-1of4":                "e49b0c08ca6aaba2b5b312d7",
	"wide-a/par4/delta/one/budget-1of4":              "149a13c83e44cf9727c1fce0",
	"wide-a/par4/mono/budget-1of2":                   "019753f4280fbd0082eb479a",
	"wide-a/par4/sharded/budget-1of2":                "7f23cdae1ecd4e1757512791",
	"wide-a/par4/delta/one/budget-1of2":              "93b2054550b463bfefcd7459",
	"wide-a/par4/mono/budget-3of4":                   "12b70b9064a2f3ce4ca98ade",
	"wide-a/par4/sharded/budget-3of4":                "7f23cdae1ecd4e1757512791",
	"wide-a/par4/delta/one/budget-3of4":              "93b2054550b463bfefcd7459",
	"wide-a/par4/mono/budget-9of10":                  "df5890b020870928eb9d7c7e",
	"wide-a/par4/sharded/budget-9of10":               "7f23cdae1ecd4e1757512791",
	"wide-a/par4/delta/one/budget-9of10":             "93b2054550b463bfefcd7459",
	"wide-a/par4/mono/budget-all":                    "44791643debb93ec548a65e4",
	"wide-a/par4/sharded/budget-all":                 "205245a14f411f3a6c116539",
	"wide-a/par4/delta/one/budget-all":               "2dcb360d9a1d9ae77c83bb24",
	"wide-a/par4/sharded/budget-pin":                 "8d319655ebeea54f4f5d9fd7",
	"wide-a/par4/assigned/round-robin":               "4c4f9310bfb5e18e6de4129e",
	"wide-a/par4/assigned/some-local":                "b4f10c75835e228f5eaeda8a",
	"wide-a/par4/observe/plain/drift":                "8fb044cbae4c8d2d8503cc40",
	"wide-a/par4/observe/plain/failover":             "be4ee9498c072f0db05b187f",
	"wide-a/par4/observe/plain/failover+drift":       "af54018534e935e6e7dff168",
	"wide-a/par4/observe/plain/blackout":             "180d919ec0c373a922271719",
	"wide-a/par4/observe/plain/recover":              "4b78a70c757ab7c882e50fce",
	"wide-a/par4/observe/frontier/drift":             "9950fa9b6c7397f617f680f2",
	"wide-a/par4/observe/frontier/failover":          "1180c4af8ddc4a3902422433",
	"wide-a/par4/observe/frontier/failover+drift":    "e496f6a426f7c25b3fd7fc2c",
	"wide-a/par4/observe/frontier/blackout":          "3998432469263339d8c83b9a",
	"wide-a/par4/observe/frontier/recover":           "4b78a70c757ab7c882e50fce",
	"wide-a/par4/metrics":                            "9fa2db5a3f10b6a9a678e905",
	"wide-b/par1/mono":                               "855ddb2dfb2ea22b7519ac20",
	"wide-b/par1/sharded":                            "064ffc6d0e80e579a70240b2",
	"wide-b/par1/frontier-tables":                    "5f3a5db17ce2fa725fa4e9d5",
	"wide-b/par1/mono/frontier-full":                 "386e58ff81c5c4367ab16741",
	"wide-b/par1/sharded/frontier-full":              "0bb8afebbadf5f2a7a2a93c6",
	"wide-b/par1/mono/frontier-empty":                "0bae6ebed436abc2383b9d71",
	"wide-b/par1/sharded/frontier-empty":             "da032f6d4eff5dbbc8d83ae5",
	"wide-b/par1/delta/none":                         "9030eb8bd2303ad5f857823b",
	"wide-b/par1/delta/one":                          "38d232f10113344f31cc3243",
	"wide-b/par1/delta/many":                         "84897e0f423402fea26e87d6",
	"wide-b/par1/delta/unreconciled/one":             "af07b16db008976780a30873",
	"wide-b/par1/delta/unreconciled/many":            "7f984f0b65b66fc70792ebd2",
	"wide-b/par1/delta/unreconciled/all":             "4c12d3eb6a76b4f95dc8fe22",
	"wide-b/par1/delta/many/frontier-extended":       "e7131735597a7550a1f6a4bb",
	"wide-b/par1/delta/one/frontier-partial":         "b8169a7c7c5042799ff8e74d",
	"wide-b/par1/mono/budget-1of4":                   "22708c53af3700c0d8f6b590",
	"wide-b/par1/sharded/budget-1of4":                "739178251e9155175273c1ff",
	"wide-b/par1/delta/one/budget-1of4":              "e0c7ab4bc428d528ca747e43",
	"wide-b/par1/mono/budget-1of2":                   "d53a4d92bceda44d935fabea",
	"wide-b/par1/sharded/budget-1of2":                "e1914aca876591a2e6bc47df",
	"wide-b/par1/delta/one/budget-1of2":              "1aa9b13fcd4915e6fca4e5e7",
	"wide-b/par1/mono/budget-3of4":                   "52b17d430923868335009766",
	"wide-b/par1/sharded/budget-3of4":                "e1914aca876591a2e6bc47df",
	"wide-b/par1/delta/one/budget-3of4":              "55c7194e2d0750fa951a5df8",
	"wide-b/par1/mono/budget-9of10":                  "431181c0ebaa5acd4b3024d3",
	"wide-b/par1/sharded/budget-9of10":               "e1914aca876591a2e6bc47df",
	"wide-b/par1/delta/one/budget-9of10":             "55c7194e2d0750fa951a5df8",
	"wide-b/par1/mono/budget-all":                    "855ddb2dfb2ea22b7519ac20",
	"wide-b/par1/sharded/budget-all":                 "064ffc6d0e80e579a70240b2",
	"wide-b/par1/delta/one/budget-all":               "38d232f10113344f31cc3243",
	"wide-b/par1/sharded/budget-pin":                 "7bf325b552fdc4d9486b69a9",
	"wide-b/par1/assigned/round-robin":               "a106f46025ebfb6f1f9d0b64",
	"wide-b/par1/assigned/some-local":                "bdb5bc9bf2fd0552c5a33223",
	"wide-b/par1/observe/plain/drift":                "0d915813914d762adaedb11a",
	"wide-b/par1/observe/plain/failover":             "0164222dadb6d31b8b0ad33f",
	"wide-b/par1/observe/plain/failover+drift":       "525e3cafdb34235980aab8b2",
	"wide-b/par1/observe/plain/blackout":             "765f8a904e785a0fcd3889cc",
	"wide-b/par1/observe/plain/recover":              "e3e672922196bf3188814436",
	"wide-b/par1/observe/frontier/drift":             "ef1696dc23d7dc93f54c7b9a",
	"wide-b/par1/observe/frontier/failover":          "7c9866f9e434e5e3e26406f2",
	"wide-b/par1/observe/frontier/failover+drift":    "d173378d72af98ef8879de4b",
	"wide-b/par1/observe/frontier/blackout":          "bd106acd8390a6ef1037ccb3",
	"wide-b/par1/observe/frontier/recover":           "e3e672922196bf3188814436",
	"wide-b/par1/metrics":                            "3248f0087ab1b64481674af8",
	"wide-b/par4/mono":                               "50c2825dd850072a9ec133ca",
	"wide-b/par4/sharded":                            "4c9d972fa157fa9797048c32",
	"wide-b/par4/frontier-tables":                    "5f3a5db17ce2fa725fa4e9d5",
	"wide-b/par4/mono/frontier-full":                 "1b128a8f56b09feebe06c85c",
	"wide-b/par4/sharded/frontier-full":              "81509907c55be4a429f9e300",
	"wide-b/par4/mono/frontier-empty":                "22f95c6be2e5024558ea6af6",
	"wide-b/par4/sharded/frontier-empty":             "31c3b6f65e88895571aa678d",
	"wide-b/par4/delta/none":                         "9030eb8bd2303ad5f857823b",
	"wide-b/par4/delta/one":                          "2d489bd846de8ac42a6140fd",
	"wide-b/par4/delta/many":                         "96cdbf7eab38bf52817f4078",
	"wide-b/par4/delta/unreconciled/one":             "024a37fd2cb6eb0d1b111ce6",
	"wide-b/par4/delta/unreconciled/many":            "7bbbb00946c116e677f6cd02",
	"wide-b/par4/delta/unreconciled/all":             "88a30c784c6c5260c5a19148",
	"wide-b/par4/delta/many/frontier-extended":       "8c3329b50b827cfe1111ffd0",
	"wide-b/par4/delta/one/frontier-partial":         "e9e74d973f05f147b6b0e2cd",
	"wide-b/par4/mono/budget-1of4":                   "22708c53af3700c0d8f6b590",
	"wide-b/par4/sharded/budget-1of4":                "739178251e9155175273c1ff",
	"wide-b/par4/delta/one/budget-1of4":              "e0c7ab4bc428d528ca747e43",
	"wide-b/par4/mono/budget-1of2":                   "d53a4d92bceda44d935fabea",
	"wide-b/par4/sharded/budget-1of2":                "e1914aca876591a2e6bc47df",
	"wide-b/par4/delta/one/budget-1of2":              "1aa9b13fcd4915e6fca4e5e7",
	"wide-b/par4/mono/budget-3of4":                   "52b17d430923868335009766",
	"wide-b/par4/sharded/budget-3of4":                "e1914aca876591a2e6bc47df",
	"wide-b/par4/delta/one/budget-3of4":              "55c7194e2d0750fa951a5df8",
	"wide-b/par4/mono/budget-9of10":                  "431181c0ebaa5acd4b3024d3",
	"wide-b/par4/sharded/budget-9of10":               "e1914aca876591a2e6bc47df",
	"wide-b/par4/delta/one/budget-9of10":             "55c7194e2d0750fa951a5df8",
	"wide-b/par4/mono/budget-all":                    "50c2825dd850072a9ec133ca",
	"wide-b/par4/sharded/budget-all":                 "4c9d972fa157fa9797048c32",
	"wide-b/par4/delta/one/budget-all":               "2d489bd846de8ac42a6140fd",
	"wide-b/par4/sharded/budget-pin":                 "7bf325b552fdc4d9486b69a9",
	"wide-b/par4/assigned/round-robin":               "a106f46025ebfb6f1f9d0b64",
	"wide-b/par4/assigned/some-local":                "bdb5bc9bf2fd0552c5a33223",
	"wide-b/par4/observe/plain/drift":                "0d915813914d762adaedb11a",
	"wide-b/par4/observe/plain/failover":             "0164222dadb6d31b8b0ad33f",
	"wide-b/par4/observe/plain/failover+drift":       "525e3cafdb34235980aab8b2",
	"wide-b/par4/observe/plain/blackout":             "765f8a904e785a0fcd3889cc",
	"wide-b/par4/observe/plain/recover":              "7ee981c83770aa384c8199de",
	"wide-b/par4/observe/frontier/drift":             "ef1696dc23d7dc93f54c7b9a",
	"wide-b/par4/observe/frontier/failover":          "7c9866f9e434e5e3e26406f2",
	"wide-b/par4/observe/frontier/failover+drift":    "d173378d72af98ef8879de4b",
	"wide-b/par4/observe/frontier/blackout":          "bd106acd8390a6ef1037ccb3",
	"wide-b/par4/observe/frontier/recover":           "7ee981c83770aa384c8199de",
	"wide-b/par4/metrics":                            "5c737ba9b353a8a89735f0d6",
	"floor/par1/mono":                                "b0ef5fc00e6f21d893c22b52",
	"floor/par1/sharded":                             "4dfecc14247c6cc4ab673af3",
	"floor/par1/frontier-tables":                     "0e0949a4d7142cba5d0b845d",
	"floor/par1/mono/frontier-full":                  "60f59c2ad3ddce2eb48a9787",
	"floor/par1/sharded/frontier-full":               "b8c2f15121f350c18e53b81a",
	"floor/par1/mono/frontier-empty":                 "3f94437edd121f4c909c1bd5",
	"floor/par1/sharded/frontier-empty":              "e09934a75e1bbd109455ea8d",
	"floor/par1/delta/none":                          "2edbdddae22bc98b0ed56c49",
	"floor/par1/delta/one":                           "01a4174c4fbd79201ddcb923",
	"floor/par1/delta/many":                          "09418746dd1818046ff2cb04",
	"floor/par1/delta/unreconciled/one":              "01a4174c4fbd79201ddcb923",
	"floor/par1/delta/unreconciled/many":             "09418746dd1818046ff2cb04",
	"floor/par1/delta/unreconciled/all":              "7ffc375574286fe35266d173",
	"floor/par1/delta/many/frontier-extended":        "0cea74917daf199030a8e01c",
	"floor/par1/delta/one/frontier-partial":          "d120f695cf5aba5c5221a752",
	"floor/par1/mono/budget-1of4":                    "0796b4168bbf071a73828c8d",
	"floor/par1/sharded/budget-1of4":                 "869e5d8590c8298172acb7a0",
	"floor/par1/delta/one/budget-1of4":               "857e65b4aba4b930ccfcdcc5",
	"floor/par1/mono/budget-1of2":                    "8d319655ebeea54f4f5d9fd7",
	"floor/par1/sharded/budget-1of2":                 "3f1efc1d3d17868c1f1295e3",
	"floor/par1/delta/one/budget-1of2":               "857e65b4aba4b930ccfcdcc5",
	"floor/par1/mono/budget-3of4":                    "1cf72b56973af39fb7307035",
	"floor/par1/sharded/budget-3of4":                 "3f1efc1d3d17868c1f1295e3",
	"floor/par1/delta/one/budget-3of4":               "857e65b4aba4b930ccfcdcc5",
	"floor/par1/mono/budget-9of10":                   "5c9925c935502beb50565cf3",
	"floor/par1/sharded/budget-9of10":                "3f1efc1d3d17868c1f1295e3",
	"floor/par1/delta/one/budget-9of10":              "857e65b4aba4b930ccfcdcc5",
	"floor/par1/mono/budget-all":                     "b0ef5fc00e6f21d893c22b52",
	"floor/par1/sharded/budget-all":                  "4dfecc14247c6cc4ab673af3",
	"floor/par1/delta/one/budget-all":                "01a4174c4fbd79201ddcb923",
	"floor/par1/sharded/budget-pin":                  "ac66e355988bb70afdb5bcf4",
	"floor/par1/assigned/round-robin":                "c0381def69932bb05c2b7fed",
	"floor/par1/assigned/some-local":                 "6633db1ea9d3a967bd39f4a7",
	"floor/par1/observe/plain/drift":                 "db89c7997c8ca693b27c5055",
	"floor/par1/observe/plain/failover":              "4e2c14e61898ef58d2cfc41e",
	"floor/par1/observe/plain/failover+drift":        "6eb118df4630d1655070a3ba",
	"floor/par1/observe/plain/blackout":              "b539ada10a8500717e7c88eb",
	"floor/par1/observe/plain/recover":               "f427d6757478b0e429224622",
	"floor/par1/observe/frontier/drift":              "41a7e65409e15bb568bbd396",
	"floor/par1/observe/frontier/failover":           "0265f3297bd0a522c509d971",
	"floor/par1/observe/frontier/failover+drift":     "b32b6caf2ca6e3228a59833f",
	"floor/par1/observe/frontier/blackout":           "72eb2c42973645c6ca8941f3",
	"floor/par1/observe/frontier/recover":            "f427d6757478b0e429224622",
	"floor/par1/metrics":                             "5f527f4b243d907b9d2922af",
	"floor/par4/mono":                                "b0ef5fc00e6f21d893c22b52",
	"floor/par4/sharded":                             "4dfecc14247c6cc4ab673af3",
	"floor/par4/frontier-tables":                     "0e0949a4d7142cba5d0b845d",
	"floor/par4/mono/frontier-full":                  "60f59c2ad3ddce2eb48a9787",
	"floor/par4/sharded/frontier-full":               "b8c2f15121f350c18e53b81a",
	"floor/par4/mono/frontier-empty":                 "3f94437edd121f4c909c1bd5",
	"floor/par4/sharded/frontier-empty":              "e09934a75e1bbd109455ea8d",
	"floor/par4/delta/none":                          "2edbdddae22bc98b0ed56c49",
	"floor/par4/delta/one":                           "01a4174c4fbd79201ddcb923",
	"floor/par4/delta/many":                          "09418746dd1818046ff2cb04",
	"floor/par4/delta/unreconciled/one":              "01a4174c4fbd79201ddcb923",
	"floor/par4/delta/unreconciled/many":             "09418746dd1818046ff2cb04",
	"floor/par4/delta/unreconciled/all":              "7ffc375574286fe35266d173",
	"floor/par4/delta/many/frontier-extended":        "0cea74917daf199030a8e01c",
	"floor/par4/delta/one/frontier-partial":          "d120f695cf5aba5c5221a752",
	"floor/par4/mono/budget-1of4":                    "0796b4168bbf071a73828c8d",
	"floor/par4/sharded/budget-1of4":                 "869e5d8590c8298172acb7a0",
	"floor/par4/delta/one/budget-1of4":               "857e65b4aba4b930ccfcdcc5",
	"floor/par4/mono/budget-1of2":                    "8d319655ebeea54f4f5d9fd7",
	"floor/par4/sharded/budget-1of2":                 "3f1efc1d3d17868c1f1295e3",
	"floor/par4/delta/one/budget-1of2":               "857e65b4aba4b930ccfcdcc5",
	"floor/par4/mono/budget-3of4":                    "1cf72b56973af39fb7307035",
	"floor/par4/sharded/budget-3of4":                 "3f1efc1d3d17868c1f1295e3",
	"floor/par4/delta/one/budget-3of4":               "857e65b4aba4b930ccfcdcc5",
	"floor/par4/mono/budget-9of10":                   "5c9925c935502beb50565cf3",
	"floor/par4/sharded/budget-9of10":                "3f1efc1d3d17868c1f1295e3",
	"floor/par4/delta/one/budget-9of10":              "857e65b4aba4b930ccfcdcc5",
	"floor/par4/mono/budget-all":                     "b0ef5fc00e6f21d893c22b52",
	"floor/par4/sharded/budget-all":                  "4dfecc14247c6cc4ab673af3",
	"floor/par4/delta/one/budget-all":                "01a4174c4fbd79201ddcb923",
	"floor/par4/sharded/budget-pin":                  "ac66e355988bb70afdb5bcf4",
	"floor/par4/assigned/round-robin":                "c0381def69932bb05c2b7fed",
	"floor/par4/assigned/some-local":                 "6633db1ea9d3a967bd39f4a7",
	"floor/par4/observe/plain/drift":                 "db89c7997c8ca693b27c5055",
	"floor/par4/observe/plain/failover":              "4e2c14e61898ef58d2cfc41e",
	"floor/par4/observe/plain/failover+drift":        "6eb118df4630d1655070a3ba",
	"floor/par4/observe/plain/blackout":              "b539ada10a8500717e7c88eb",
	"floor/par4/observe/plain/recover":               "f427d6757478b0e429224622",
	"floor/par4/observe/frontier/drift":              "41a7e65409e15bb568bbd396",
	"floor/par4/observe/frontier/failover":           "0265f3297bd0a522c509d971",
	"floor/par4/observe/frontier/failover+drift":     "b32b6caf2ca6e3228a59833f",
	"floor/par4/observe/frontier/blackout":           "72eb2c42973645c6ca8941f3",
	"floor/par4/observe/frontier/recover":            "f427d6757478b0e429224622",
	"floor/par4/metrics":                             "5f527f4b243d907b9d2922af",
	"large/par1/sharded":                             "91a460d33d18ece091dd02fd",
	"large/par1/frontier-tables":                     "5f3a5db17ce2fa725fa4e9d5",
	"large/par1/sharded/frontier-full":               "cbb180c9c53c8c15ecb9a800",
	"large/par1/sharded/frontier-empty":              "84969e09359d46a3b4b97660",
	"large/par1/delta/none":                          "dea01662c4357cf662402e50",
	"large/par1/delta/one":                           "1d3c0cc5ccb3b208bf309e46",
	"large/par1/delta/many":                          "8025250311a75e7581c8699f",
	"large/par1/delta/unreconciled/one":              "ad22f76bc01c2973b0598e21",
	"large/par1/delta/unreconciled/many":             "1619c9e74c45f69809427a2a",
	"large/par1/delta/unreconciled/all":              "44ce0dc65481478b4779ef36",
	"large/par1/delta/many/frontier-extended":        "f193facd9d6f3c33d8792c11",
	"large/par1/delta/one/frontier-partial":          "6e601f6d14163662531d65fa",
	"large/par1/sharded/budget-1of4":                 "a95356060b24f08dea2daca6",
	"large/par1/delta/one/budget-1of4":               "ddee0b57c485309e8c798fc8",
	"large/par1/sharded/budget-1of2":                 "0b1d314647e8367d88b4107c",
	"large/par1/delta/one/budget-1of2":               "2ae085e9945d83c0ce16423a",
	"large/par1/sharded/budget-3of4":                 "d9f1b953b4805b2c16458211",
	"large/par1/delta/one/budget-3of4":               "2d29cf83b2d0dac156f827b9",
	"large/par1/sharded/budget-9of10":                "9351e2a6bc437b8c99f50905",
	"large/par1/delta/one/budget-9of10":              "4e918089e03a224f19e0f678",
	"large/par1/sharded/budget-all":                  "91a460d33d18ece091dd02fd",
	"large/par1/delta/one/budget-all":                "1d3c0cc5ccb3b208bf309e46",
	"large/par1/sharded/budget-pin":                  "e0985a3e10779d05c6cc8e42",
	"large/par1/observe/plain/drift":                 "f55b0eee1ff36c395b6b8ea2",
	"large/par1/observe/plain/failover":              "ac24ab5b3fdb02c75998315a",
	"large/par1/observe/plain/failover+drift":        "992645d8ad733f984acf30f2",
	"large/par1/observe/plain/blackout":              "81158b0d61e2522a62c86ed9",
	"large/par1/observe/plain/recover":               "6c4349b839b1ab0f40ff8be3",
	"large/par1/observe/frontier/drift":              "12a6729523de9b598be99ce7",
	"large/par1/observe/frontier/failover":           "948f6d528e808073722d7965",
	"large/par1/observe/frontier/failover+drift":     "c9b3b2bb83bc61618f18392b",
	"large/par1/observe/frontier/blackout":           "c158ae28864782aeeaff8b27",
	"large/par1/observe/frontier/recover":            "6c4349b839b1ab0f40ff8be3",
	"large/par1/metrics":                             "8f49967c2ef637b227e45c75",
	"large/par4/sharded":                             "91a460d33d18ece091dd02fd",
	"large/par4/frontier-tables":                     "5f3a5db17ce2fa725fa4e9d5",
	"large/par4/sharded/frontier-full":               "cbb180c9c53c8c15ecb9a800",
	"large/par4/sharded/frontier-empty":              "84969e09359d46a3b4b97660",
	"large/par4/delta/none":                          "dea01662c4357cf662402e50",
	"large/par4/delta/one":                           "1d3c0cc5ccb3b208bf309e46",
	"large/par4/delta/many":                          "8025250311a75e7581c8699f",
	"large/par4/delta/unreconciled/one":              "ad22f76bc01c2973b0598e21",
	"large/par4/delta/unreconciled/many":             "1619c9e74c45f69809427a2a",
	"large/par4/delta/unreconciled/all":              "44ce0dc65481478b4779ef36",
	"large/par4/delta/many/frontier-extended":        "f193facd9d6f3c33d8792c11",
	"large/par4/delta/one/frontier-partial":          "6e601f6d14163662531d65fa",
	"large/par4/sharded/budget-1of4":                 "a95356060b24f08dea2daca6",
	"large/par4/delta/one/budget-1of4":               "ddee0b57c485309e8c798fc8",
	"large/par4/sharded/budget-1of2":                 "0b1d314647e8367d88b4107c",
	"large/par4/delta/one/budget-1of2":               "2ae085e9945d83c0ce16423a",
	"large/par4/sharded/budget-3of4":                 "d9f1b953b4805b2c16458211",
	"large/par4/delta/one/budget-3of4":               "2d29cf83b2d0dac156f827b9",
	"large/par4/sharded/budget-9of10":                "9351e2a6bc437b8c99f50905",
	"large/par4/delta/one/budget-9of10":              "4e918089e03a224f19e0f678",
	"large/par4/sharded/budget-all":                  "91a460d33d18ece091dd02fd",
	"large/par4/delta/one/budget-all":                "1d3c0cc5ccb3b208bf309e46",
	"large/par4/sharded/budget-pin":                  "e0985a3e10779d05c6cc8e42",
	"large/par4/observe/plain/drift":                 "f55b0eee1ff36c395b6b8ea2",
	"large/par4/observe/plain/failover":              "ac24ab5b3fdb02c75998315a",
	"large/par4/observe/plain/failover+drift":        "992645d8ad733f984acf30f2",
	"large/par4/observe/plain/blackout":              "81158b0d61e2522a62c86ed9",
	"large/par4/observe/plain/recover":               "6c4349b839b1ab0f40ff8be3",
	"large/par4/observe/frontier/drift":              "12a6729523de9b598be99ce7",
	"large/par4/observe/frontier/failover":           "948f6d528e808073722d7965",
	"large/par4/observe/frontier/failover+drift":     "c9b3b2bb83bc61618f18392b",
	"large/par4/observe/frontier/blackout":           "c158ae28864782aeeaff8b27",
	"large/par4/observe/frontier/recover":            "6c4349b839b1ab0f40ff8be3",
	"large/par4/metrics":                             "8f49967c2ef637b227e45c75",
}
