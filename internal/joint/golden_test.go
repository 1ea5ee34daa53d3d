package joint

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/telemetry"
)

// This file is the cross-build golden: every other suite in the package
// compares two routes inside one build (sharded vs monolithic, frontier vs
// fallback), which is exactly what a refactor of the shared planning core
// cannot be checked with — both sides move together. Here each (scenario,
// route) cell is reduced to two SHA-256 digests and compared with the pair
// recorded in testdata/golden_digests.txt (one sorted "cell decisions
// bookkeeping" line per cell):
//
//   - decisions: what the planner decided — every Decision field (plan, eval,
//     server, shares, as exact float bits), Objective, Feasible, PlannerName,
//     the dispatcher's HealthReport, and errors by their text, so abort points
//     (SurgeryBudget) and failure routing are pinned too;
//   - bookkeeping: how it got there — Iterations, Trajectory, Shards,
//     DirtyShards, SurgeryOps, the surgery tables' hit and miss counts, table
//     counts and the published registry.
//
// Supplying surgery tables must never move a decision, so the cells that
// re-plan a route with a full or an empty table set record "=" for their
// decisions half and the harness holds them to the set-less cell of the same
// route instead.
//
// A change that claims to keep plans bit-identical must leave the file
// untouched; a change that moves plans on purpose regenerates it
// (make golden-update) and says, per half, how many cells moved. A half
// nothing was written to is recorded as "-".

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.txt from this build's plans")

const goldenFile = "testdata/golden_digests.txt"

// goldenHalf accumulates one digest's canonical rendering; h stays nil until
// something is written.
type goldenHalf struct{ h hash.Hash }

func (g *goldenHalf) write(format string, v ...any) {
	if g.h == nil {
		g.h = sha256.New()
	}
	fmt.Fprintf(g.h, format, v...)
}

func (g *goldenHalf) str(s string)  { g.write("%d:%s|", len(s), s) }
func (g *goldenHalf) int(v int64)   { g.write("%d|", v) }
func (g *goldenHalf) f64(v float64) { g.write("%016x|", math.Float64bits(v)) }
func (g *goldenHalf) bool(v bool)   { g.write("%t|", v) }

func (g *goldenHalf) sum() string {
	if g.h == nil {
		return "-"
	}
	return hex.EncodeToString(g.h.Sum(nil))[:24]
}

// goldenHash is one cell: its decisions and bookkeeping halves. sameAs, when
// set, names the cell of the same scenario whose decisions this one must
// repeat.
type goldenHash struct {
	dec, book goldenHalf
	sameAs    string
}

func (g *goldenHash) outcome(p *Plan, err error) {
	if err != nil {
		g.dec.str("error")
		g.dec.str(err.Error())
		g.dec.bool(p != nil)
		return
	}
	g.plan(p)
}

func (g *goldenHash) plan(p *Plan) {
	b := &g.book
	b.int(int64(p.Iterations))
	b.int(int64(len(p.Trajectory)))
	for _, v := range p.Trajectory {
		b.f64(v)
	}
	b.int(int64(p.Shards))
	b.int(int64(p.DirtyShards))
	b.int(p.SurgeryOps)
	b.int(p.FrontierHits)
	b.int(p.FrontierMisses)

	d := &g.dec
	d.str("plan")
	d.str(p.PlannerName)
	d.f64(p.Objective)
	d.bool(p.Feasible)
	d.int(int64(len(p.Decisions)))
	for i := range p.Decisions {
		dc := &p.Decisions[i]
		if dc.Plan.Model != nil {
			d.str(dc.Plan.Model.Name)
		} else {
			d.str("<nil>")
		}
		d.int(int64(len(dc.Plan.Exits)))
		for _, e := range dc.Plan.Exits {
			d.int(int64(e))
		}
		d.f64(dc.Plan.Theta)
		d.int(int64(dc.Plan.Partition))
		ev := &dc.Eval
		for _, v := range []float64{ev.Latency, ev.Accuracy, ev.FixedSec, ev.ServerSec, ev.TxSec, ev.CrossProb, ev.DeviceSec} {
			d.f64(v)
		}
		d.int(int64(len(ev.ExitProbs)))
		for _, v := range ev.ExitProbs {
			d.f64(v)
		}
		d.int(int64(dc.Server))
		d.f64(dc.ComputeShare)
		d.f64(dc.BandwidthShare)
	}
}

func (g *goldenHash) report(r HealthReport) {
	d := &g.dec
	d.str("report")
	for _, dn := range r.Down {
		d.bool(dn)
	}
	d.int(int64(r.Evacuated))
	d.int(int64(r.LocalFallback))
	d.int(int64(r.Shed))
	d.int(int64(len(r.Degraded)))
	for _, ui := range r.Degraded {
		d.int(int64(ui))
	}
	d.bool(r.Restored)
}

// registry digests the planner's published series (bookkeeping): every
// counter and gauge under its name, and each histogram as name.count (the
// sum of its buckets) and name.sum, in one name-sorted series.
func (g *goldenHash) registry(reg *telemetry.Registry) {
	st := reg.State()
	snap := make(map[string]float64, len(st.Counters)+len(st.Gauges)+2*len(st.Histograms))
	for name, v := range st.Counters {
		snap[name] = float64(v)
	}
	for name, v := range st.Gauges {
		snap[name] = v
	}
	for name, h := range st.Histograms {
		var n int64
		for _, c := range h.Counts {
			n += c
		}
		snap[name+".count"] = float64(n)
		snap[name+".sum"] = h.Sum
	}
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	g.book.str("registry")
	for _, name := range names {
		g.book.str(name)
		g.book.f64(snap[name])
	}
}

// goldenLargeScenario is the scale-regime fixture: users × servers exceeds
// reconcileCandidateBudget and users exceed crossCheckUserLimit, so the
// sharded and delta routes take their budget-bounded reconciliation with no
// monolithic cross-check. Rates and deadlines are set so shards contend and
// reconciliation actually migrates users.
func goldenLargeScenario() *Scenario { return contendedScaleScenario(520) }

// contendedScaleScenario is the scale-study population over 8 servers with
// rates, deadlines and weights that make shards contend.
func contendedScaleScenario(nUsers int) *Scenario {
	sc := millionUserScenario(nUsers, 8)
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
	large bool
	// maxTables caps the frontier set (0 = default budget): keys past the
	// cap get private tables, which pins the mixed shared/private path the
	// full and empty sets cannot.
	maxTables int
}

func goldenScenarios(t *testing.T) []goldenScenario {
	floor := testScenario(t, 4, 30)
	for i := range floor.Users {
		floor.Users[i].MinAccuracy = 0.55
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
		{name: "floor", sc: floor, maxTables: 2},
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

// goldenCells runs every route for one scenario and reports each cell
// through emit.
func goldenCells(t *testing.T, gs goldenScenario, emit func(cell string, g *goldenHash)) {
	sc := gs.sc
	var base Options
	thresh := 1
	if gs.large {
		thresh = 64
	}
	cell := func(name string, fill func(g *goldenHash)) {
		g := new(goldenHash)
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
	cell("frontier-tables", func(g *goldenHash) { g.book.int(int64(full.Len())) })
	for _, arm := range []struct {
		name string
		set  *surgery.FrontierSet
	}{{"full", full}, {"empty", surgery.NewFrontierSet(bo)}} {
		if !gs.large {
			p, err := (&Planner{Opt: with(func(o *Options) { o.Frontiers = arm.set })}).Plan(sc)
			cell("mono/frontier-"+arm.name, func(g *goldenHash) { g.outcome(p, err); g.sameAs = "mono" })
		}
		p, err := (&Planner{Opt: with(func(o *Options) { o.Frontiers = arm.set; o.ShardThreshold = thresh })}).Plan(sc)
		cell("sharded/frontier-"+arm.name, func(g *goldenHash) { g.outcome(p, err); g.sameAs = "sharded" })
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
		g.book.int(int64(added))
		g.book.int(int64(full.Len()))
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
	// recovery — with and without frontier tables, each arm around the base
	// plan its own planner produced (recovery hands that plan back verbatim).
	for _, arm := range []struct {
		name string
		opt  Options
		base *Plan
	}{{"plain", sharded, prev}, {"frontier", fsharded, fprev}} {
		d, err := NewDispatcherWithPlan(sc, &Planner{Opt: arm.opt}, arm.base)
		if err != nil {
			t.Fatalf("%s: dispatcher: %v", gs.name, err)
		}
		rates := make([]float64, len(sc.Servers))
		for s := range rates {
			rates[s] = sc.PlanningRate(s) * (0.35 + 0.4*float64(s%3))
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

	// Ablation arms ride the same state machinery; the unmeetable floor is a
	// scenario copy with every user at accuracy 0.999.
	if gs.name == "contended" {
		unmeetable := *sc
		unmeetable.Users = append([]User(nil), sc.Users...)
		for i := range unmeetable.Users {
			unmeetable.Users[i].MinAccuracy = 0.999
		}
		arms := []struct {
			name string
			mod  func(o *Options)
			sc   *Scenario // nil = the scenario itself
		}{
			{"no-alloc", func(o *Options) { o.DisableAllocation = true }, nil},
			{"no-surgery", func(o *Options) { o.DisableSurgery = true }, nil},
			{"neither", func(o *Options) { o.DisableSurgery = true; o.DisableAllocation = true }, nil},
			{"no-reassign", func(o *Options) { o.DisableReassignment = true }, nil},
			{"no-probe", func(o *Options) { o.DisableProbe = true }, nil},
			{"no-memo", func(o *Options) { o.noMemo = true }, nil},
			{"iters-3", func(o *Options) { o.MaxIters = 3 }, nil},
			{"floor-unmeetable", func(*Options) {}, &unmeetable},
		}
		for _, arm := range arms {
			asc := sc
			if arm.sc != nil {
				asc = arm.sc
			}
			mo := with(arm.mod)
			p, err := (&Planner{Opt: mo}).Plan(asc)
			cell("mono/"+arm.name, func(g *goldenHash) { g.outcome(p, err) })
			so := mo
			so.ShardThreshold = thresh
			sp, serr := (&Planner{Opt: so}).Plan(asc)
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
	rates[0] = sc.PlanningRate(0) * 0.5
	if _, err := d.Observe(nil, rates); err != nil {
		t.Fatalf("%s: instrumented observe: %v", gs.name, err)
	}
	cell("metrics", func(g *goldenHash) { g.registry(reg) })
}

// TestGoldenPlanDigests compares every cell against the recorded digests, or
// with -update records them.
func TestGoldenPlanDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler may fuse multiply-adds on other architectures, which
		// legitimately moves float bits; the digests were recorded on amd64.
		t.Skip("golden digests are recorded on amd64")
	}
	got := make(map[string][2]string)
	for _, gs := range goldenScenarios(t) {
		goldenCells(t, gs, func(cell string, g *goldenHash) {
			name := gs.name + "/" + cell
			dec := g.dec.sum()
			if g.sameAs != "" {
				if ref := got[gs.name+"/"+g.sameAs][0]; dec != ref {
					t.Errorf("golden %q: decisions %s, but %q decided %s", name, dec, gs.name+"/"+g.sameAs, ref)
				}
				dec = "="
			}
			got[name] = [2]string{dec, g.book.sum()}
		})
	}
	if *updateGolden {
		writeGoldenDigests(t, got)
		return
	}
	want := readGoldenDigests(t)
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("golden %q: got %s %s, no recorded digests", name, g[0], g[1])
			continue
		}
		if g[0] != w[0] {
			t.Errorf("golden %q: decisions %s, want %s", name, g[0], w[0])
		}
		if g[1] != w[1] {
			t.Errorf("golden %q: bookkeeping %s, want %s", name, g[1], w[1])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden %q: recorded digests have no cell", name)
		}
	}
}

func writeGoldenDigests(t *testing.T, cells map[string][2]string) {
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s %s\n", name, cells[name][0], cells[name][1])
	}
	if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %d cells in %s", len(names), goldenFile)
}

func readGoldenDigests(t *testing.T) map[string][2]string {
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cells := make(map[string][2]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		cells[fields[0]] = [2]string{fields[1], fields[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cells
}
