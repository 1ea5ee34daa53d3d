package surgery

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/workload"
)

// Constraint kinds testFrontierKey can draw.
const (
	keyFree = iota
	keyAccuracyFloor
	keyNoExits
)

// Entries returns the plans that have won at least one filled cell, in the
// order their first cells were filled. Read-only.
func (t *Frontier) Entries() []FrontierEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries
}

// testFrontierKey draws one random but domain-valid frontier key under the
// given constraint kind. The rng fully determines the key, so seeded tests
// are reproducible.
func testFrontierKey(t testing.TB, rng *rand.Rand, kind int) FrontierKey {
	t.Helper()
	models := []func() *dnn.Model{dnn.AlexNet, dnn.MobileNetV2, dnn.ResNet18, dnn.SqueezeNet}
	devices := []string{"rpi4", "phone-soc", "jetson-nano"}
	servers := []string{"edge-gpu-t4", "edge-cpu-16c"}
	dev, err := hardware.ByName(devices[rng.Intn(len(devices))])
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hardware.ByName(servers[rng.Intn(len(servers))])
	if err != nil {
		t.Fatal(err)
	}
	k := FrontierKey{
		Model:      models[rng.Intn(len(models))](),
		Device:     dev,
		Server:     srv,
		UplinkBps:  1e6 * math.Pow(10, 2*rng.Float64()), // 1-100 Mbps
		RTT:        0.002 + 0.02*rng.Float64(),
		Rate:       5 * rng.Float64(),
		TxFactor:   0.25 + rng.Float64(),
		Difficulty: workload.DifficultyKind(rng.Intn(4)),
		Curves:     DefaultCurves(),
	}
	switch kind {
	case keyAccuracyFloor:
		k.MinAccuracy = 0.55 + 0.15*rng.Float64()
	case keyNoExits:
		k.NoExits = true
	}
	return k
}

func TestShareGridProperties(t *testing.T) {
	g := NewShareGrid(0)
	if g.Levels() != DefaultStepsPerOctave*shareGridOctaves+1 {
		t.Fatalf("default grid has %d levels", g.Levels())
	}
	if g.Value(0) != 1 {
		t.Fatalf("Value(0) = %g, want 1", g.Value(0))
	}
	for i := 1; i < g.Levels(); i++ {
		if g.Value(i) >= g.Value(i-1) {
			t.Fatalf("levels not strictly descending at %d: %g >= %g", i, g.Value(i), g.Value(i-1))
		}
	}
	// Index is the exact inverse of Value on grid points.
	for i := 0; i < g.Levels(); i++ {
		if got := g.Index(g.Value(i)); got != i {
			t.Fatalf("Index(Value(%d)) = %d", i, got)
		}
	}
	// Index matches a brute-force nearest-in-log-space scan (ties to the
	// larger share == smaller index) for random shares, and Snap is its
	// fixed point.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		s := math.Pow(2, -13*rng.Float64()) * (1 + rng.Float64())
		best, bestD := 0, math.Inf(1)
		for i := 0; i < g.Levels(); i++ {
			if d := math.Abs(math.Log(s) - math.Log(g.Value(i))); d < bestD-1e-15 {
				best, bestD = i, d
			}
		}
		if got := g.Index(s); got != best {
			t.Fatalf("Index(%g) = %d (level %g), brute force wants %d (level %g)",
				s, got, g.Value(got), best, g.Value(best))
		}
		if snapped := g.Snap(s); g.Snap(snapped) != snapped {
			t.Fatalf("Snap not idempotent at %g", s)
		}
	}
	if g.Snap(0) != 0 || g.Snap(-1) != 0 {
		t.Fatal("non-positive shares must snap to 0")
	}
	if g.Snap(7) != 1 {
		t.Fatalf("Snap(7) = %g, want clamp to 1", g.Snap(7))
	}
	if g.Snap(1e-9) != g.Value(g.Levels()-1) {
		t.Fatalf("Snap(1e-9) = %g, want floor level %g", g.Snap(1e-9), g.Value(g.Levels()-1))
	}
}

// TestFrontierMatchesOptimizer is the exactness pin: for seeded random
// (model, device, link) keys — unconstrained, accuracy-floored and
// exit-free — every cell of a table, on its first and on a repeat lookup,
// agrees bit for bit with a direct surgery.Optimize call, and at infeasible
// cells the table returns the optimizer's own error. A coarse
// 1-step-per-octave grid keeps the exhaustive sweep cheap while still covering
// the full 12-octave share range.
func TestFrontierMatchesOptimizer(t *testing.T) {
	grid := NewShareGrid(1)
	rng := rand.New(rand.NewSource(42))
	compared := make(map[int]int)
	for trial := 0; trial < 12; trial++ {
		kind := keyFree
		if trial >= 8 {
			kind = keyAccuracyFloor + trial%2
		}
		k := testFrontierKey(t, rng, kind)
		bo := BuildOptions{grid: grid, Surgery: Options{FixedPartition: FreePartition}}
		table, err := BuildFrontier(k, bo)
		if err != nil {
			t.Fatal(err)
		}
		opt := k.options(bo.Surgery)
		for fi := 0; fi < grid.Levels(); fi++ {
			for bi := 0; bi < grid.Levels(); bi++ {
				f, b := grid.Value(fi), grid.Value(bi)
				wantPlan, wantEv, wantErr := Optimize(k.Model, k.env(f, b), opt)
				gotPlan, gotEv, known, err := table.Lookup(f, b)
				if known {
					t.Fatalf("trial %d: first lookup at (%g, %g) found the cell filled", trial, f, b)
				}
				if wantErr != nil {
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("trial %d: error at (%g, %g) = %v, optimizer says %v", trial, f, b, err, wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("trial %d: fill failed at (%g, %g): %v", trial, f, b, err)
				}
				check := func(mode string, gotPlan Plan, gotEv Eval) {
					t.Helper()
					if !reflect.DeepEqual(gotPlan, wantPlan) {
						t.Fatalf("trial %d: %s plan mismatch at shares (%g, %g):\n  table:     %+v\n  optimizer: %+v",
							trial, mode, f, b, gotPlan, wantPlan)
					}
					if !reflect.DeepEqual(gotEv, wantEv) {
						t.Fatalf("trial %d: %s eval mismatch at shares (%g, %g):\n  table:     %+v\n  optimizer: %+v",
							trial, mode, f, b, gotEv, wantEv)
					}
				}
				check("first lookup", gotPlan, gotEv)
				gotPlan, gotEv, known, err = table.Lookup(f, b)
				if !known || err != nil {
					t.Fatalf("trial %d: second lookup at (%g, %g): known %t, err %v", trial, f, b, known, err)
				}
				check("filled cell", gotPlan, gotEv)
				compared[kind]++
			}
		}
		// One optimizer call per cell: repeat lookups of a filled cell are
		// free, and no infeasible cell was asked twice.
		if want := grid.Levels() * grid.Levels(); table.Probes() != want {
			t.Fatalf("trial %d: table spent %d probes on %d cells", trial, table.Probes(), want)
		}
	}
	if compared[keyFree] == 0 || compared[keyAccuracyFloor] == 0 || compared[keyNoExits] == 0 {
		t.Fatalf("feasible cells compared by kind %v; the corpus is too thin", compared)
	}
}

// TestFrontierFillsOnDemand pins the fill mode's two promises. Memory
// follows the cells touched: a row exists only once one of its cells is
// filled. And a fill is counted once: a cell is reported unknown to the first
// lookup that lands on it and known to every later one — the planner's
// hit/miss split rests on this.
func TestFrontierFillsOnDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := testFrontierKey(t, rng, keyFree)
	bo := BuildOptions{grid: NewShareGrid(1), Surgery: Options{FixedPartition: FreePartition}}
	table, err := BuildFrontier(k, bo)
	if err != nil {
		t.Fatal(err)
	}
	grid := table.grid
	rowsHeld := func() int {
		n := 0
		for _, row := range table.rows {
			if row != nil {
				n++
			}
		}
		return n
	}
	if rowsHeld() != 0 || len(table.Entries()) != 0 || table.Probes() != 0 {
		t.Fatal("a fresh table already holds cells")
	}
	for _, bi := range []int{0, 5, 9} {
		if _, _, _, err := table.Lookup(grid.Value(4), grid.Value(bi)); err != nil {
			t.Fatal(err)
		}
	}
	if rowsHeld() != 1 || table.Probes() != 3 {
		t.Fatalf("three cells of one compute level: %d rows, %d probes", rowsHeld(), table.Probes())
	}

	fills := 0
	for pass := 0; pass < 2; pass++ {
		for fi := 0; fi < grid.Levels(); fi++ {
			for bi := 0; bi < grid.Levels(); bi++ {
				_, _, known, err := table.Lookup(grid.Value(fi), grid.Value(bi))
				if err != nil {
					t.Fatal(err)
				}
				if !known {
					fills++
				}
			}
		}
	}
	cells := grid.Levels() * grid.Levels()
	if got := fills + 3; got != cells { // three were filled above
		t.Fatalf("%d fills reported for %d cells", got, cells)
	}
	if table.Probes() != cells {
		t.Fatalf("%d probes filled %d cells", table.Probes(), cells)
	}

	// One kernel, many shares: whatever order a table's cells are filled in —
	// ascending, descending or shuffled, all solving against the kernel the
	// first fill built — every cell holds what a fresh
	// Optimize (a kernel of its own) returns at that grid point. The key is one
	// whose winning exit set changes across the grid, so a stale or shared
	// buffer would show.
	k = FrontierKey{Model: dnn.AlexNet(), UplinkBps: 100e6, RTT: 0.004, Difficulty: workload.EasyBiased}
	if k.Device, err = hardware.ByName("rpi4"); err != nil {
		t.Fatal(err)
	}
	if k.Server, err = hardware.ByName("edge-gpu-t4"); err != nil {
		t.Fatal(err)
	}
	n := grid.Levels()
	type answer struct {
		plan Plan
		ev   Eval
	}
	fresh := make([]answer, cells)
	for c := range fresh {
		f, b := grid.Value(c/n), grid.Value(c%n)
		if fresh[c].plan, fresh[c].ev, err = Optimize(k.Model, k.env(f, b), k.options(bo.Surgery)); err != nil {
			t.Fatal(err)
		}
	}
	same := func(got, want answer) bool {
		return reflect.DeepEqual(got.plan, want.plan) && evalDiff(got.ev, want.ev) == ""
	}
	checkCell := func(order string, tb *Frontier, c int) {
		plan, ev, _, err := tb.Lookup(grid.Value(c/n), grid.Value(c%n))
		if err != nil {
			t.Errorf("%s: cell %d: %v", order, c, err)
		} else if !same(answer{plan, ev}, fresh[c]) {
			t.Errorf("%s: cell %d holds %v / %+v, a fresh Optimize returns %v / %+v", order, c, plan, ev, fresh[c].plan, fresh[c].ev)
		}
	}
	orders := map[string][]int{"ascending": make([]int, cells), "descending": make([]int, cells), "shuffled": rng.Perm(cells)}
	for c := 0; c < cells; c++ {
		orders["ascending"][c], orders["descending"][c] = c, cells-1-c
	}
	for order, seq := range orders {
		tb, err := BuildFrontier(k, bo)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range seq {
			checkCell(order, tb, c)
		}
		if len(tb.Entries()) < 3 {
			t.Fatalf("fixture: %d plans on the grid; want several", len(tb.Entries()))
		}
	}

	// What a solve returns is the caller's, not a view of the pooled scratch:
	// the next solve (which rewrites the scratch) leaves it intact, and
	// scribbling over it afterwards disturbs no later solve.
	kern, err := newKernel(k.Model, k.env(1, 1), k.options(bo.Surgery))
	if err != nil {
		t.Fatal(err)
	}
	var last answer
	lastCell := -1
	for _, c := range orders["shuffled"] {
		plan, ev, err := kern.solve(grid.Value(c/n), grid.Value(c%n))
		if err != nil {
			t.Fatal(err)
		}
		if !same(answer{plan, ev}, fresh[c]) {
			t.Fatalf("solve of cell %d returned %v / %+v, a fresh Optimize returns %v / %+v", c, plan, ev, fresh[c].plan, fresh[c].ev)
		}
		if lastCell >= 0 {
			if !same(last, fresh[lastCell]) {
				t.Fatalf("the answer for cell %d changed under the next solve: %v / %+v", lastCell, last.plan, last.ev)
			}
			for i := range last.plan.Exits {
				last.plan.Exits[i] = -1
			}
			for i := range last.ev.ExitProbs {
				last.ev.ExitProbs[i] = -1
			}
		}
		last, lastCell = answer{plan, ev}, c
	}
}

// TestFrontierNoDominatedEntries checks the Pareto property on tables filled
// cell by cell: no retained entry is weakly dominated (with a strict
// improvement) by another on the (FixedSec, ServerSec, TxSec) latency
// components — such an entry would have strictly higher latency at every
// share pair and could never win a grid cell.
func TestFrontierNoDominatedEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		table, err := BuildFrontier(testFrontierKey(t, rng, keyFree), BuildOptions{grid: NewShareGrid(2), Surgery: Options{FixedPartition: FreePartition}})
		if err != nil {
			t.Fatal(err)
		}
		grid := table.grid
		for fi := 0; fi < grid.Levels(); fi++ {
			for bi := 0; bi < grid.Levels(); bi++ {
				if _, _, _, err := table.Lookup(grid.Value(fi), grid.Value(bi)); err != nil {
					t.Fatal(err)
				}
			}
		}
		entries := table.Entries()
		dominates := func(a, b *Eval) bool {
			if a.FixedSec > b.FixedSec || a.ServerSec > b.ServerSec || a.TxSec > b.TxSec {
				return false
			}
			return a.FixedSec < b.FixedSec || a.ServerSec < b.ServerSec || a.TxSec < b.TxSec
		}
		for i := range entries {
			for j := range entries {
				if i != j && dominates(&entries[i].Eval, &entries[j].Eval) {
					t.Fatalf("trial %d: entry %d (%+v) dominates entry %d (%+v)",
						trial, i, entries[i].Eval, j, entries[j].Eval)
				}
			}
		}
	}
}

// TestFrontierInfeasibleCell: a key no plan satisfies — an unmeetable accuracy
// floor, which every solve discovers anew, or a model no partition fits in
// memory, which the kernel build discovers once — has a table that hands back
// the optimizer's error on every ask, whichever cell is asked, counting each
// as a probe and leaving the cell unknown.
func TestFrontierInfeasibleCell(t *testing.T) {
	floor := testFrontierKey(t, rand.New(rand.NewSource(9)), keyFree)
	floor.MinAccuracy = 0.9999
	memory := floor
	memory.MinAccuracy, memory.Model = 0, dnn.VGG16()
	var err error
	if memory.Device, err = hardware.ByName("mcu-m7"); err != nil {
		t.Fatal(err)
	}
	cramped := *memory.Server
	cramped.MemBytes = 1
	memory.Server = &cramped
	bo := BuildOptions{grid: NewShareGrid(1), Surgery: Options{FixedPartition: FreePartition}}
	for name, k := range map[string]FrontierKey{"accuracy floor": floor, "memory": memory} {
		table, err := BuildFrontier(k, bo)
		if err != nil {
			t.Fatal(err)
		}
		for ask, s := range [][2]float64{{0.5, 0.5}, {0.5, 0.5}, {1, 0.125}} {
			_, _, wantErr := Optimize(k.Model, k.env(s[0], s[1]), k.options(bo.Surgery))
			if wantErr == nil {
				t.Fatalf("%s: fixture is feasible", name)
			}
			_, _, known, err := table.Lookup(s[0], s[1])
			if known || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s, ask %d: known %t, err %v; optimizer says %v", name, ask+1, known, err, wantErr)
			}
			if table.Probes() != ask+1 {
				t.Fatalf("%s, ask %d: %d probes", name, ask+1, table.Probes())
			}
		}
		if len(table.Entries()) != 0 {
			t.Fatalf("%s: an infeasible table holds %d plans", name, len(table.Entries()))
		}
	}
}

func TestFrontierSetSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	k1 := testFrontierKey(t, rng, keyFree)
	k2 := testFrontierKey(t, rng, keyFree)
	if k1 == k2 {
		t.Fatal("rng produced identical keys")
	}
	set := NewFrontierSet(BuildOptions{MaxTables: 1, Surgery: Options{FixedPartition: FreePartition}})
	if err := set.Build(k1); err != nil {
		t.Fatal(err)
	}
	if err := set.Build(k1); err != nil {
		t.Fatalf("idempotent rebuild errored: %v", err)
	}
	if set.Len() != 1 {
		t.Fatalf("set holds %d tables, want 1", set.Len())
	}
	if set.Probes() != 0 || len(set.Get(k1).Entries()) != 0 {
		t.Fatal("a registered table already holds cells")
	}
	if err := set.Build(k2); err == nil {
		t.Fatal("capacity overflow must error")
	}
	if _, _, ok := set.Lookup(k2, 1, 1); ok {
		t.Fatal("lookup of an untabulated key must miss")
	}
	for ask := 0; ask < 2; ask++ {
		plan, _, ok := set.Lookup(k1, 0.5, 0.5)
		if !ok || plan.Model == nil {
			t.Fatal("lookup of a registered key must answer with a real plan")
		}
		if set.Probes() != 1 {
			t.Fatalf("ask %d: the set counts %d fills, want 1", ask+1, set.Probes())
		}
	}
	// Device-only keys tabulate as single-entry tables.
	k3 := k1
	k3.Server = nil
	k3.UplinkBps, k3.RTT = 0, 0
	only := NewFrontierSet(BuildOptions{Surgery: Options{FixedPartition: FreePartition}})
	if err := only.Build(k3); err != nil {
		t.Fatal(err)
	}
	dp, dev1, ok := only.Lookup(k3, 0, 0)
	if !ok {
		t.Fatal("device-only lookup must hit")
	}
	if dp.Partition != dp.Model.NumUnits() {
		t.Fatalf("device-only plan crosses at partition %d", dp.Partition)
	}
	_, dev2, _ := only.Lookup(k3, 0.25, 0.5)
	if !reflect.DeepEqual(dev1, dev2) || only.Probes() != 1 {
		t.Fatalf("device-only tables must ignore shares: %d fills", only.Probes())
	}
}

// FuzzFrontierLookup drives table lookups with arbitrary shares: no panic,
// and every lookup returns exactly the optimizer's answer at the snapped
// shares, a plan the table lists among its entries.
func FuzzFrontierLookup(f *testing.F) {
	f.Add(uint8(0), 0.5, 0.5)
	f.Add(uint8(1), 1.0, 0.001)
	f.Add(uint8(2), -3.0, 7.5)
	rng := rand.New(rand.NewSource(5))
	bo := BuildOptions{grid: NewShareGrid(2), Surgery: Options{FixedPartition: FreePartition}}
	tables := make([]*Frontier, 3)
	for i := range tables {
		table, err := BuildFrontier(testFrontierKey(f, rng, keyFree), bo)
		if err != nil {
			f.Fatal(err)
		}
		tables[i] = table
	}
	f.Fuzz(func(t *testing.T, sel uint8, cs, bs float64) {
		table := tables[int(sel)%len(tables)]
		fShare, bShare := fuzzUnit(cs), fuzzUnit(bs)
		key, grid := table.key, table.grid
		sf, sb := grid.Snap(fShare), grid.Snap(bShare)
		wantPlan, wantEv, err := Optimize(key.Model, key.env(sf, sb), key.options(bo.Surgery))
		if err != nil {
			t.Fatalf("optimizer failed at snapped shares (%g, %g): %v", sf, sb, err)
		}
		plan, ev, _, err := table.Lookup(fShare, bShare)
		if err != nil {
			t.Fatalf("lookup at (%g, %g): %v", fShare, bShare, err)
		}
		found := false
		for _, e := range table.Entries() {
			if reflect.DeepEqual(e.Plan, plan) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("lookup at (%g, %g) returned a plan outside the frontier", fShare, bShare)
		}
		if !reflect.DeepEqual(plan, wantPlan) || !reflect.DeepEqual(ev, wantEv) {
			t.Fatalf("lookup at (%g, %g) diverged from optimizer at snapped (%g, %g)", fShare, bShare, sf, sb)
		}
	})
}

// TestFrontierConcurrentFills pins the sharing contract a FrontierSet's
// tables rely on: eight goroutines looking up every cell of one table at once
// report exactly one fill per cell between them, spend one optimizer call per
// cell, and each read the optimizer's answer. make test-race repeats it under
// the race detector.
func TestFrontierConcurrentFills(t *testing.T) {
	k := testFrontierKey(t, rand.New(rand.NewSource(13)), keyFree)
	bo := BuildOptions{grid: NewShareGrid(1), Surgery: Options{FixedPartition: FreePartition}}
	table, err := BuildFrontier(k, bo)
	if err != nil {
		t.Fatal(err)
	}
	grid := table.grid
	n := grid.Levels()
	want := make([]Plan, n*n)
	for c := range want {
		if want[c], _, err = Optimize(k.Model, k.env(grid.Value(c/n), grid.Value(c%n)), k.options(bo.Surgery)); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	fills := make([]int, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := range want {
				c := (i + w*len(want)/workers) % len(want) // start apart, then overlap
				plan, _, known, err := table.Lookup(grid.Value(c/n), grid.Value(c%n))
				if err != nil || !reflect.DeepEqual(plan, want[c]) {
					t.Errorf("worker %d, cell %d: %v, err %v; the optimizer returns %v", w, c, plan, err, want[c])
					return
				}
				if !known {
					fills[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, f := range fills {
		total += f
	}
	if total != len(want) || table.Probes() != len(want) {
		t.Fatalf("%d fills reported and %d probes spent for %d cells", total, table.Probes(), len(want))
	}
}

// BenchmarkFrontierFill measures the planner's unit of surgery cost: filling
// one unknown cell of a table whose kernel is already built — one solve. The
// only allocations are the returned plan's exits and exit probabilities (a
// row of cells and a new entry amortize to nothing), so allocs/op stays <= 2.
// Tables are swapped, kernel warmed, off the clock when their cells run out.
func BenchmarkFrontierFill(b *testing.B) {
	srv, err := hardware.ByName("edge-gpu-t4")
	if err != nil {
		b.Fatal(err)
	}
	dev, err := hardware.ByName("rpi4")
	if err != nil {
		b.Fatal(err)
	}
	k := FrontierKey{
		Model: dnn.ResNet34(), Device: dev, Server: srv,
		UplinkBps: 25e6, RTT: 0.004, Difficulty: workload.EasyBiased,
	}
	var table *Frontier
	levels, next := NewShareGrid(0).Levels(), 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if table == nil || next == levels*levels {
			b.StopTimer()
			if table, err = BuildFrontier(k, BuildOptions{}); err != nil {
				b.Fatal(err)
			}
			if _, _, err = table.at(0, 0); err != nil { // builds the kernel
				b.Fatal(err)
			}
			next = 1
			b.StartTimer()
		}
		if _, known, err := table.at(next/levels, next%levels); known || err != nil {
			b.Fatalf("cell %d: known %t, err %v", next, known, err)
		}
		next++
	}
}
