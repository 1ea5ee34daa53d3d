package surgery

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/workload"
)

// Constraint kinds testFrontierKey can draw.
const (
	keyFree = iota
	keyAccuracyFloor
	keyEnergyCap
)

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
	case keyEnergyCap:
		k.MaxDeviceEnergyJ = 0.5 + 2*rng.Float64()
	}
	return k
}

// certifiedFrontier is the table FrontierSet.Build would store for k.
func certifiedFrontier(k FrontierKey, bo BuildOptions) (*Frontier, error) {
	table, err := BuildFrontier(k, bo)
	if err == nil {
		err = table.certify()
	}
	return table, err
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

// TestFrontierMatchesOptimizer is the exactness pin for both fill modes: for
// seeded random (model, device, link) keys — unconstrained, accuracy-floored
// and energy-capped — every cell of a table filled on demand, of a table
// filled by certification, and a direct surgery.Optimize call agree bit for
// bit. A key that is infeasible somewhere on the grid must fail to certify
// rather than tabulate approximately, and its on-demand table must return the
// optimizer's own error at exactly the infeasible cells. A coarse
// 1-step-per-octave grid keeps the exhaustive sweep cheap while still covering
// the full 12-octave share range.
func TestFrontierMatchesOptimizer(t *testing.T) {
	grid := NewShareGrid(1)
	rng := rand.New(rand.NewSource(42))
	certified := make(map[int]int)
	for trial := 0; trial < 12; trial++ {
		kind := keyFree
		if trial >= 8 {
			kind = keyAccuracyFloor + trial%2
		}
		k := testFrontierKey(t, rng, kind)
		bo := BuildOptions{grid: grid, Surgery: Options{FixedPartition: FreePartition}}
		bulk, bulkErr := certifiedFrontier(k, bo)
		if bulkErr != nil && kind == keyFree {
			t.Fatalf("unconstrained build failed: %v", bulkErr)
		}
		lazy, err := BuildFrontier(k, bo)
		if err != nil {
			t.Fatal(err)
		}
		opt := k.options(bo.Surgery)
		infeasible := 0
		for fi := 0; fi < grid.Levels(); fi++ {
			for bi := 0; bi < grid.Levels(); bi++ {
				f, b := grid.Value(fi), grid.Value(bi)
				wantPlan, wantEv, wantErr := Optimize(k.Model, k.env(f, b), opt)
				gotPlan, gotEv, known, err := lazy.Lookup(f, b)
				if known {
					t.Fatalf("trial %d: first lookup at (%g, %g) found the cell filled", trial, f, b)
				}
				if wantErr != nil {
					infeasible++
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("trial %d: on-demand error at (%g, %g) = %v, optimizer says %v", trial, f, b, err, wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("trial %d: on-demand fill failed at (%g, %g): %v", trial, f, b, err)
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
				check("on-demand", gotPlan, gotEv)
				gotPlan, gotEv, known, err = lazy.Lookup(f, b)
				if !known || err != nil {
					t.Fatalf("trial %d: second lookup at (%g, %g): known %t, err %v", trial, f, b, known, err)
				}
				check("on-demand (filled)", gotPlan, gotEv)
				if bulkErr == nil {
					gotPlan, gotEv, known, err = bulk.Lookup(f, b)
					if !known || err != nil {
						t.Fatalf("trial %d: certified table at (%g, %g): known %t, err %v", trial, f, b, known, err)
					}
					check("certified", gotPlan, gotEv)
				}
			}
		}
		if (bulkErr != nil) != (infeasible > 0) {
			t.Fatalf("trial %d: certification error %v with %d infeasible cells", trial, bulkErr, infeasible)
		}
		// One optimizer call per cell: repeat lookups of a filled cell are
		// free, and no infeasible cell was asked twice.
		if want := grid.Levels() * grid.Levels(); lazy.Probes() != want {
			t.Fatalf("trial %d: on-demand table spent %d probes on %d cells", trial, lazy.Probes(), want)
		}
		if bulkErr == nil {
			certified[kind]++
			if bulk.Probes() >= grid.Levels()*grid.Levels() && kind == keyFree {
				t.Errorf("trial %d: certification spent %d probes, no fewer than the %d cells", trial, bulk.Probes(), grid.Levels()*grid.Levels())
			}
		}
	}
	if certified[keyFree] < 8 || certified[keyAccuracyFloor] == 0 || certified[keyEnergyCap] == 0 {
		t.Fatalf("certified keys by kind %v; the corpus is too thin", certified)
	}
}

// TestFrontierFillsOnDemand pins the on-demand mode's two promises. Memory
// follows the cells touched: a row exists only once one of its cells is
// filled. And a fill is counted once: when goroutines race over the same
// cells, every cell is reported unknown to exactly one of them, whatever the
// interleaving — the planner's hit/miss split rests on this.
func TestFrontierFillsOnDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := testFrontierKey(t, rng, keyFree)
	bo := BuildOptions{grid: NewShareGrid(1), Surgery: Options{FixedPartition: FreePartition}}
	table, err := BuildFrontier(k, bo)
	if err != nil {
		t.Fatal(err)
	}
	grid := table.Grid()
	rowsHeld := func() int {
		n := 0
		for i := range table.rows {
			if table.rows[i].Load() != nil {
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

	const workers = 8
	var fills atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for fi := 0; fi < grid.Levels(); fi++ {
				for bi := 0; bi < grid.Levels(); bi++ {
					_, _, known, err := table.Lookup(grid.Value(fi), grid.Value(bi))
					if err != nil {
						t.Error(err)
						return
					}
					if !known {
						fills.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	cells := grid.Levels() * grid.Levels()
	if got := int(fills.Load()) + 3; got != cells { // three were filled above
		t.Fatalf("%d fills reported for %d cells", got, cells)
	}
	if table.Probes() < cells {
		t.Fatalf("%d probes cannot have filled %d cells", table.Probes(), cells)
	}
	want, err := certifiedFrontier(k, bo)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Entries()) != len(want.Entries()) {
		t.Fatalf("on-demand table found %d plans, certification %d", len(table.Entries()), len(want.Entries()))
	}

	// One kernel, many shares: whatever order a table's cells are filled in —
	// ascending, descending, shuffled, or by 8 goroutines at once, all solving
	// against the kernel the first fill built — every cell holds what a fresh
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
	if want, err = certifiedFrontier(k, bo); err != nil || len(want.Entries()) < 3 {
		t.Fatalf("fixture: %d plans on the grid, err %v; want several", len(want.Entries()), err)
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
	}
	racing, err := BuildFrontier(k, bo)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cells; i++ {
				checkCell("racing", racing, (i+w*cells/workers)%cells) // staggered starts: fills and reads of one cell overlap
			}
		}(w)
	}
	wg.Wait()

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

// TestFrontierNoDominatedEntries checks the Pareto property: no retained
// entry is weakly dominated (with a strict improvement) by another on the
// (FixedSec, ServerSec, TxSec) latency components — such an entry would
// have strictly higher latency at every share pair and could never win a
// grid cell.
func TestFrontierNoDominatedEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		table, err := certifiedFrontier(testFrontierKey(t, rng, keyFree), BuildOptions{Surgery: Options{FixedPartition: FreePartition}})
		if err != nil {
			t.Fatal(err)
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

// TestFrontierSortedAndMonotone checks the canonical order: entries sorted
// by descending share-sensitivity (ServerSec+TxSec), and the winning entry
// index monotone non-decreasing along the shrinking-share diagonal.
func TestFrontierSortedAndMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 6; trial++ {
		table, err := certifiedFrontier(testFrontierKey(t, rng, keyFree), BuildOptions{Surgery: Options{FixedPartition: FreePartition}})
		if err != nil {
			t.Fatal(err)
		}
		entries := table.Entries()
		for i := 1; i < len(entries); i++ {
			prev := entries[i-1].Eval.ServerSec + entries[i-1].Eval.TxSec
			cur := entries[i].Eval.ServerSec + entries[i].Eval.TxSec
			if cur > prev {
				t.Fatalf("trial %d: entries out of order at %d: sensitivity %g after %g", trial, i, cur, prev)
			}
		}
		grid := table.Grid()
		prevIdx := -1
		for i := 0; i < grid.Levels(); i++ {
			s := grid.Value(i)
			plan, _, _, _ := table.Lookup(s, s)
			idx := -1
			for j := range entries {
				if reflect.DeepEqual(entries[j].Plan, plan) {
					idx = j
					break
				}
			}
			if idx < 0 {
				t.Fatalf("trial %d: diagonal winner at share %g is not a frontier entry", trial, s)
			}
			if idx < prevIdx {
				t.Fatalf("trial %d: diagonal winner index regressed from %d to %d at share %g", trial, prevIdx, idx, s)
			}
			prevIdx = idx
		}
	}
}

// TestFrontierInfeasibleCell: a key no plan satisfies — an unmeetable accuracy
// floor, which every solve discovers anew, or a model no partition fits in
// memory, which the kernel build discovers once — fails to certify, and its
// on-demand table hands back the optimizer's error on every ask, whichever cell
// is asked, counting each as a probe and leaving the cell unknown.
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
		if _, err := certifiedFrontier(k, bo); err == nil {
			t.Fatalf("%s: an infeasible key certified", name)
		}
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
	if err := set.Build(k2); err == nil {
		t.Fatal("capacity overflow must error")
	}
	if _, _, ok := set.Lookup(k2, 1, 1); ok {
		t.Fatal("lookup of an untabulated key must miss")
	}
	plan, _, ok := set.Lookup(k1, 0.5, 0.5)
	if !ok || plan.Model == nil {
		t.Fatal("lookup of a tabulated key must hit with a real plan")
	}
	if set.Probes() <= 0 {
		t.Fatal("set must account its construction probes")
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
	if !reflect.DeepEqual(dev1, dev2) {
		t.Fatal("device-only tables must ignore shares")
	}
}

// FuzzFrontierLookup drives table lookups with arbitrary shares, against a
// certified table and an on-demand one per key: no panic, and both return
// exactly the optimizer's answer at the snapped shares.
func FuzzFrontierLookup(f *testing.F) {
	f.Add(uint8(0), 0.5, 0.5)
	f.Add(uint8(1), 1.0, 0.001)
	f.Add(uint8(2), -3.0, 7.5)
	rng := rand.New(rand.NewSource(5))
	bo := BuildOptions{grid: NewShareGrid(2), Surgery: Options{FixedPartition: FreePartition}}
	tables := make([][2]*Frontier, 3)
	for i := range tables {
		k := testFrontierKey(f, rng, keyFree)
		bulk, err := certifiedFrontier(k, bo)
		if err != nil {
			f.Fatal(err)
		}
		lazy, err := BuildFrontier(k, bo)
		if err != nil {
			f.Fatal(err)
		}
		tables[i] = [2]*Frontier{bulk, lazy}
	}
	f.Fuzz(func(t *testing.T, sel uint8, cs, bs float64) {
		pair := tables[int(sel)%len(tables)]
		fShare, bShare := fuzzUnit(cs), fuzzUnit(bs)
		key, grid := pair[0].Key(), pair[0].Grid()
		sf, sb := grid.Snap(fShare), grid.Snap(bShare)
		wantPlan, wantEv, err := Optimize(key.Model, key.env(sf, sb), key.options(bo.Surgery))
		if err != nil {
			t.Fatalf("optimizer failed at snapped shares (%g, %g): %v", sf, sb, err)
		}
		for _, table := range pair {
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
		}
	})
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
