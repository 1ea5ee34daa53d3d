package experiments

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"edgesurgeon/internal/stats"
)

func TestRegistryCompleteAndOrdered(t *testing.T) {
	ids := IDs()
	if len(ids) != 27 {
		t.Fatalf("got %d experiments, want 27: %v", len(ids), ids)
	}
	if ids[0] != "E1" || ids[26] != "E27" {
		t.Fatalf("bad ordering: %v", ids)
	}
	reg := Registry()
	for _, id := range ids {
		if reg[id] == nil {
			t.Errorf("nil runner for %s", id)
		}
	}
}

func runReport(t *testing.T, id string) *Report {
	t.Helper()
	r, err := Registry()[id]()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.ID != id {
		t.Errorf("report ID %q, want %q", r.ID, id)
	}
	if len(r.Tables) == 0 {
		t.Errorf("%s: no tables", id)
	}
	for ti, tb := range r.Tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s table %d: no rows", id, ti)
		}
	}
	if s := r.String(); !strings.Contains(s, r.Artifact) {
		t.Errorf("%s: rendered report missing artifact tag", id)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("%s: shape violation: %s", id, n)
		}
	}
	// Metrics are stored under the report's ID, which -bench-json and
	// -require-metrics prepend; a name that repeats it is written twice.
	for name := range r.Metrics {
		if strings.HasPrefix(name, id+".") {
			t.Errorf("%s: metric %q repeats the report ID", id, name)
		}
	}
	return r
}

func TestE1Shape(t *testing.T) {
	r := runReport(t, "E1")
	if len(r.Tables[0].Rows) != 8 {
		t.Errorf("zoo table rows = %d, want 8", len(r.Tables[0].Rows))
	}
}

func TestE2Shape(t *testing.T) {
	r := runReport(t, "E2")
	if len(r.Tables[0].Rows) != 6 {
		t.Errorf("hardware rows = %d, want 6", len(r.Tables[0].Rows))
	}
}

func TestE3JointDominates(t *testing.T) {
	// runReport fails on any WARNING note, which E3 emits whenever the
	// joint plan loses a bandwidth point.
	r := runReport(t, "E3")
	if len(r.Tables[0].Rows) != 9 {
		t.Errorf("bandwidth rows = %d, want 9", len(r.Tables[0].Rows))
	}
}

func TestE6FrontierMonotone(t *testing.T) {
	r := runReport(t, "E6")
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "monotone") {
			found = true
		}
	}
	if !found {
		t.Error("frontier monotonicity note missing")
	}
}

func TestE10Converges(t *testing.T) {
	r := runReport(t, "E10")
	if len(r.Tables[0].Rows) < 2 {
		t.Errorf("trajectory rows = %d", len(r.Tables[0].Rows))
	}
}

func TestE11GapSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search in -short mode")
	}
	r := runReport(t, "E11")
	// The note records mean/worst gap; the table rows carry per-instance
	// gaps which must all be tiny.
	for _, row := range r.Tables[0].Rows {
		gap := row[len(row)-1]
		if strings.HasPrefix(gap, "-") {
			t.Errorf("negative gap: %v", row)
		}
	}
}

// column returns one column of a report table as numbers, by header.
func column(t *testing.T, tb *stats.Table, header string) []float64 {
	t.Helper()
	for ci, h := range tb.Headers {
		if h != header {
			continue
		}
		out := make([]float64, len(tb.Rows))
		for ri, row := range tb.Rows {
			v, err := strconv.ParseFloat(row[ci], 64)
			if err != nil {
				t.Fatalf("%s row %d: %v", header, ri, err)
			}
			out[ri] = v
		}
		return out
	}
	t.Fatalf("no column %q in %v", header, tb.Headers)
	return nil
}

// baselines names the arms strategiesUnderTest puts beside joint.
func baselines() []string {
	var names []string
	for _, s := range strategiesUnderTest()[1:] {
		names = append(names, s.Name())
	}
	return names
}

// TestE4AdvantageGrowsWithUsers: joint's advantage over the best baseline
// (ratio of simulated means) widens with contention. It rises at every step
// from N=1 to N=16; the last step dips (38x -> 30x, EXPERIMENTS.md deviation
// 7) and is pinned from below at the order of magnitude the table states.
func TestE4AdvantageGrowsWithUsers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-user simulations in -short mode")
	}
	tb := runReport(t, "E4").Tables[0]
	users := column(t, tb, "users")
	if len(users) != 6 || users[0] != 1 || users[5] != 32 {
		t.Fatalf("user counts %v, want 1..32 in six steps", users)
	}
	best := make([]float64, len(users)) // the best baseline's mean, row by row
	for ri := range best {
		best[ri] = math.Inf(1)
	}
	for _, b := range baselines() {
		for ri, mean := range column(t, tb, b+"-mean(ms)") {
			best[ri] = min(best[ri], mean)
		}
	}
	adv := column(t, tb, "joint-mean(ms)")
	for ri := range adv {
		adv[ri] = best[ri] / adv[ri]
	}
	for ri := 1; ri < 5; ri++ {
		if adv[ri] <= adv[ri-1] {
			t.Errorf("advantage %.2fx at N=%g, no more than %.2fx at N=%g", adv[ri], users[ri], adv[ri-1], users[ri-1])
		}
	}
	if adv[0] < 1 || adv[5] < 25 || adv[5] <= adv[3] {
		t.Errorf("advantage %.2fx at N=1, %.2fx at N=8, %.2fx at N=32; want >= 1x, then >= 25x and above N=8's", adv[0], adv[3], adv[5])
	}
}

// TestE5JointHoldsDeadlines: joint keeps >= 90 % of deadlines through
// 4 req/s/user and beats every baseline at every rate.
func TestE5JointHoldsDeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-user simulations in -short mode")
	}
	tb := runReport(t, "E5").Tables[0]
	rates := column(t, tb, "rate(req/s/user)")
	jointRate := column(t, tb, "joint")
	for ri, rate := range rates {
		if rate <= 4 && jointRate[ri] < 0.9 {
			t.Errorf("joint satisfies %.4f of deadlines at %g req/s/user, want >= 0.9", jointRate[ri], rate)
		}
	}
	for _, b := range baselines() {
		for ri, got := range column(t, tb, b) {
			if got >= jointRate[ri] {
				t.Errorf("%s satisfies %.4f at %g req/s/user, joint only %.4f", b, got, rates[ri], jointRate[ri])
			}
		}
	}
	if len(rates) != 6 || rates[2] != 4 {
		t.Errorf("rates %v, want six with 4 req/s/user third", rates)
	}
}

// TestE7AblationOrdering: joint <= each single-axis arm <= neither, in
// simulated mean latency, at all three loads.
func TestE7AblationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-user simulations in -short mode")
	}
	tb := runReport(t, "E7").Tables[0]
	loads := column(t, tb, "load(req/s/user)")
	if len(loads) != 3 {
		t.Fatalf("loads %v, want three", loads)
	}
	jointMean, neither := column(t, tb, "joint-mean(ms)"), column(t, tb, "neither-mean(ms)")
	for _, arm := range []string{"surgery-only", "alloc-only"} {
		single := column(t, tb, arm+"-mean(ms)")
		for ri, load := range loads {
			if !(jointMean[ri] <= single[ri] && single[ri] <= neither[ri]) {
				t.Errorf("load %g: joint %g, %s %g, neither %g ms; want them in that order", load, jointMean[ri], arm, single[ri], neither[ri])
			}
		}
	}
}

// TestE8JointInsensitiveToSplit: at fixed aggregate capacity joint's mean
// latency moves by at most 5 % across the three capacity splits.
func TestE8JointInsensitiveToSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-user simulations in -short mode")
	}
	means := column(t, runReport(t, "E8").Tables[0], "joint-mean(ms)")
	if len(means) != 3 {
		t.Fatalf("%d capacity splits, want 3", len(means))
	}
	if lo, hi := slices.Min(means), slices.Max(means); hi > 1.05*lo {
		t.Errorf("joint mean spans %g..%g ms across splits (%.3fx), want <= 1.05x", lo, hi, hi/lo)
	}
}

// TestE19JointSustainsTenfold: joint's sustainable rate at >= 90 %
// satisfaction is at least ten times the best baseline's.
func TestE19JointSustainsTenfold(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-user simulations in -short mode")
	}
	tb := runReport(t, "E19").Tables[0]
	rates := column(t, tb, "max-rate(req/s/user)")
	if len(rates) != len(strategiesUnderTest()) || tb.Rows[0][0] != "joint" {
		t.Fatalf("rows %v, want joint then the baselines", tb.Rows)
	}
	if best := slices.Max(rates[1:]); rates[0] <= 0 || rates[0] < 10*best {
		t.Errorf("joint sustains %g req/s/user, best baseline %g; want >= 10x", rates[0], best)
	}
}

// TestExtensionExperimentsRun: E13, E14, E17 and E18 run, raise no shape
// WARNING of their own and show what their EXPERIMENTS.md rows state.
func TestExtensionExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-user simulations in -short mode")
	}
	// E13: epoch replanning bounds the tail and the mean below the static
	// plan's without giving up deadlines.
	t.Run("E13", func(t *testing.T) {
		tb := runReport(t, "E13").Tables[1]
		if len(tb.Rows) != 2 || tb.Rows[0][0] != "static" || tb.Rows[1][0] != "online" {
			t.Fatalf("rows %v, want static then online", tb.Rows)
		}
		for _, h := range []string{"p99(ms)", "mean(ms)"} {
			if c := column(t, tb, h); c[1] >= c[0] {
				t.Errorf("online %s %g, static %g; want online below", h, c[1], c[0])
			}
		}
		if c := column(t, tb, "deadline-rate"); c[1] < c[0] {
			t.Errorf("online meets %.4f of deadlines, static %.4f; want online no lower", c[1], c[0])
		}
	})
	// E14: joint spends the least device energy of all arms, at least 5x
	// below local-only, while holding the best mean latency.
	t.Run("E14", func(t *testing.T) {
		tb := runReport(t, "E14").Tables[0]
		if len(tb.Rows) != len(strategiesUnderTest()) || tb.Rows[0][0] != "joint" || tb.Rows[1][0] != "local-only" {
			t.Fatalf("rows %v, want joint, local-only, then the other baselines", tb.Rows)
		}
		energy, mean := column(t, tb, "energy(J/task)"), column(t, tb, "mean-latency(ms)")
		for ri := 1; ri < len(tb.Rows); ri++ {
			if energy[ri] <= energy[0] || mean[ri] <= mean[0] {
				t.Errorf("%s: %g J/task, %g ms; joint %g J/task, %g ms — want joint lowest in both",
					tb.Rows[ri][0], energy[ri], mean[ri], energy[0], mean[0])
			}
		}
		if energy[1] < 5*energy[0] {
			t.Errorf("local-only %g J/task, joint %g; want >= 5x", energy[1], energy[0])
		}
	})
	// E17: gold (w=4) is served faster than bronze (w=1) both as planned
	// and as simulated, and bronze is not starved: a class that completed
	// nothing would read a zero mean, one stuck behind gold a p95 at the
	// horizon.
	t.Run("E17", func(t *testing.T) {
		tb := runReport(t, "E17").Tables[0]
		if len(tb.Rows) != 2 || tb.Rows[0][0] != "gold(w=4)" || tb.Rows[1][0] != "bronze(w=1)" {
			t.Fatalf("rows %v, want gold then bronze", tb.Rows)
		}
		for _, h := range []string{"exp-latency(ms)", "sim-mean(ms)"} {
			if c := column(t, tb, h); c[0] >= c[1] {
				t.Errorf("%s: gold %g, bronze %g; want gold below", h, c[0], c[1])
			}
		}
		bronzeMean, bronzeP95 := column(t, tb, "sim-mean(ms)")[1], column(t, tb, "sim-p95(ms)")[1]
		if !(bronzeMean > 0 && bronzeP95 < simHorizon*1000) {
			t.Errorf("bronze simulated mean %g ms, p95 %g ms; want its tasks completing inside the %g s horizon", bronzeMean, bronzeP95, simHorizon)
		}
	})
	// E18: joint is the fastest arm under all three service disciplines and
	// within 5 % of itself across them.
	t.Run("E18", func(t *testing.T) {
		tb := runReport(t, "E18").Tables[0]
		if len(tb.Headers) != 4 || len(tb.Rows) != len(strategiesUnderTest()) || tb.Rows[0][0] != "joint" {
			t.Fatalf("table %v %v, want three disciplines with joint first", tb.Headers, tb.Rows)
		}
		var jointMeans []float64
		for _, h := range tb.Headers[1:] {
			c := column(t, tb, h)
			if best := slices.Min(c[1:]); c[0] >= best {
				t.Errorf("%s: joint %g ms, best baseline %g ms; want joint fastest", h, c[0], best)
			}
			jointMeans = append(jointMeans, c[0])
		}
		if lo, hi := slices.Min(jointMeans), slices.Max(jointMeans); hi > 1.05*lo {
			t.Errorf("joint mean spans %g..%g ms across disciplines (%.3fx), want <= 1.05x", lo, hi, hi/lo)
		}
	})
}

func TestE20FailureAwareWins(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-trace simulations in -short mode")
	}
	// runReport fails on the WARNING notes E20 emits when failure-aware
	// dispatch is not strictly better inside fault windows or recovery
	// does not restore the pre-fault plan.
	r := runReport(t, "E20")
	if len(r.Tables) != 2 {
		t.Fatalf("want per-epoch + overall tables, got %d", len(r.Tables))
	}
	if rows := len(r.Tables[0].Rows); rows != 12 {
		t.Errorf("epoch rows = %d, want 12", rows)
	}
	if rows := len(r.Tables[1].Rows); rows != 3 {
		t.Errorf("overall rows = %d, want 3", rows)
	}
	restored := false
	for _, n := range r.Notes {
		restored = restored || strings.Contains(n, "restored the pristine plan")
	}
	if !restored {
		t.Error("recovery note missing")
	}
}

func TestE22HysteresisHoldsTheLine(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-replay simulations in -short mode")
	}
	// runReport fails on the WARNING notes E22 emits when hysteresis loses
	// more than one point of deadline satisfaction vs replan-always, fails
	// to cut full replans by at least 5x, or loses to never-replan inside
	// fault windows.
	r := runReport(t, "E22")
	if rows := len(r.Tables[0].Rows); rows != 3 {
		t.Fatalf("policy rows = %d, want 3", rows)
	}
}

func TestE12RealNN(t *testing.T) {
	if testing.Short() {
		t.Skip("NN training in -short mode")
	}
	r := runReport(t, "E12")
	if len(r.Tables) < 2 {
		t.Fatalf("want sweep + fit tables, got %d", len(r.Tables))
	}
}

func TestE9Scalability(t *testing.T) {
	if testing.Short() {
		t.Skip("planner scaling sweep in -short mode")
	}
	runReport(t, "E9")
}

func TestE15CompressionHelpsAtLowBandwidth(t *testing.T) {
	r := runReport(t, "E15")
	// In every row the int4 column must be <= the fp32 column.
	for _, row := range r.Tables[0].Rows {
		if len(row) != 4 {
			t.Fatalf("row arity: %v", row)
		}
	}
}

func TestE16ProbeEscapesEquilibrium(t *testing.T) {
	runReport(t, "E16") // the runner itself fails the shape via WARNING notes
}

// TestE23SmallScaleShape runs a shrunken E23 (the full one plans 100k
// users): one dual-arm size plus one sharded-only size, asserting the
// report shape and that every metric key the BENCH_planner.json consumers
// require is emitted.
func TestE23SmallScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("planner scale arms in -short mode")
	}
	r, err := e23Scale([]int{48}, []int{96}, 2, 24)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E23" {
		t.Errorf("report ID %q", r.ID)
	}
	if len(r.Tables[0].Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(r.Tables[0].Rows))
	}
	for _, k := range []string{"cores", "users_max", "speedup_vs_monolithic", "gap_worst_pct", "sharded_wallclock_sec", "frontier_wallclock_sec"} {
		if _, ok := r.Metrics[k]; !ok {
			t.Errorf("metric %q missing", k)
		}
	}
}

// TestE24SmallShape runs a shrunken E24 frontier study, asserting the
// report shape, that the parity cross-check passed (parity_ok = 1: the
// frontier-backed plan was bit-identical to the optimizer-fallback plan),
// and that every metric key the bench-frontier-smoke guard requires is
// emitted.
func TestE24SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier study arms in -short mode")
	}
	r, err := e24Frontier([]int{48}, 2, 24, 48)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E24" {
		t.Errorf("report ID %q", r.ID)
	}
	if len(r.Tables[0].Rows) != 1 {
		t.Errorf("rows = %d, want 1", len(r.Tables[0].Rows))
	}
	for _, k := range []string{"cores", "users_max", "build_sec", "legacy_wallclock_sec", "frontier_wallclock_sec", "speedup_vs_legacy", "hit_rate_pct", "parity_ok"} {
		if _, ok := r.Metrics[k]; !ok {
			t.Errorf("metric %q missing", k)
		}
	}
	if r.Metrics["parity_ok"] != 1 {
		t.Errorf("frontier/optimizer parity failed: %v", r.Notes)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("shape violation: %s", n)
		}
	}
}

// TestE26SmallShape runs a shrunken E26 replan-latency study (the full one
// replans 100k users), asserting the report shape and that every metric key
// the bench-replan-smoke guard requires is emitted. Wall-clock speedup is
// meaningless at this size, so only the fidelity metric is bounded: the
// delta objective may be at most 1% worse than the full re-solve (it is
// routinely better — the warm start lands in a better basin than a cold
// sharded replan, so the gap is one-sided).
func TestE26SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("replan study arms in -short mode")
	}
	r, err := e26Replan([]int{96}, 2, 24)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E26" {
		t.Errorf("report ID %q", r.ID)
	}
	if len(r.Tables[0].Rows) != 1 {
		t.Errorf("rows = %d, want 1", len(r.Tables[0].Rows))
	}
	for _, k := range []string{"users_max", "full_replan_sec", "delta_replan_sec", "replan_speedup", "delta_gap_pct", "delta_ops_frac", "dirty_shards"} {
		if _, ok := r.Metrics[k]; !ok {
			t.Errorf("metric %q missing", k)
		}
	}
	if gap := r.Metrics["delta_gap_pct"]; gap > 1 {
		t.Errorf("delta objective %+.3f%% worse than full, exceeds the 1%% contract", gap)
	}
}

// TestE21SmallScaleAgrees runs a shrunken E21 (the full one sweeps 100k
// users), asserting the report shape, that no WARNING note was raised and
// that every metric key BENCH_sim.json holds is emitted.
func TestE21SmallScaleAgrees(t *testing.T) {
	r, err := e21Scale([]int{64, 256}, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E21" {
		t.Errorf("report ID %q", r.ID)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("shape violation: %s", n)
		}
	}
	if len(r.Tables[0].Rows) != 4 {
		t.Errorf("rows = %d, want 4", len(r.Tables[0].Rows))
	}
	for _, k := range []string{"events_per_sec", "allocs_per_event", "users_max", "cores"} {
		if _, ok := r.Metrics[k]; !ok {
			t.Errorf("metric %q missing", k)
		}
	}
}

// TestE27SmallShape runs a shrunken E27 data-plane study (real edgeagent
// processes over loopback TCP under each policy arm), asserting the report
// shape and that every metric key the bench-serve-smoke guard requires is
// emitted. Tail numbers are host-dependent and not bounded here; what is
// asserted is that every arm completed its requests.
func TestE27SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster arms in -short mode")
	}
	r, err := e27DataPlane(2, 120, 2, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E27" {
		t.Errorf("report ID %q", r.ID)
	}
	if rows := len(r.Tables[0].Rows); rows != 3 {
		t.Fatalf("arm rows = %d, want 3", rows)
	}
	for _, arm := range []string{"never", "hysteresis", "delta"} {
		for _, k := range []string{"p50_ms_", "p99_ms_", "ok_frac_", "full_replans_"} {
			if _, ok := r.Metrics[k+arm]; !ok {
				t.Errorf("metric %q missing", k+arm)
			}
		}
		if f := r.Metrics["ok_frac_"+arm]; f < 1 {
			t.Errorf("arm %s completed only %.3f of its requests", arm, f)
		}
	}
}

// TestE25ChaosShape runs the chaos-recovery study end to end. runReport
// fails on the WARNING notes E25 emits when crash recovery diverges from
// the undisturbed run, when the crash/slow/corrupt arms fail to crash,
// hit a deadline, or trip quarantine — so a green run certifies exact
// recovery under fire.
func TestE25ChaosShape(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay arms in -short mode")
	}
	r := runReport(t, "E25")
	if rows := len(r.Tables[0].Rows); rows != 4 {
		t.Fatalf("arm rows = %d, want 4", rows)
	}
	for _, k := range []string{
		"recovery_fidelity", "crashes", "deadline_hit_rate",
		"stale_serves", "quarantine_drops",
	} {
		if _, ok := r.Metrics[k]; !ok {
			t.Errorf("metric %q missing", k)
		}
	}
	if r.Metrics["recovery_fidelity"] != 1 {
		t.Errorf("recovery fidelity = %g, want 1", r.Metrics["recovery_fidelity"])
	}
}
