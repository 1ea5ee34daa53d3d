package surgery

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/workload"
)

// This file implements precomputed Pareto-frontier surgery tables: per
// (model, device, server, link, constraint) key, the full map from allocated
// (compute, bandwidth) shares to the optimizer's plan, tabulated over a
// small geometric share grid. A frontier lookup replaces one Optimize call
// — the innermost kernel of the joint planner — with a binary-searched grid
// quantization plus an O(1) cell read, returning results bit-identical to
// the optimizer at every grid point.
//
// Exactness rests on the latency decomposition (see Eval): for a fixed plan,
//
//	Latency(f, b) = FixedSec + ServerSec/f + TxSec/b
//
// is linear in (x, y) = (1/f, 1/b), and every other Eval field is
// share-independent. Construction probes the optimizer at the corners of
// share rectangles and fills a rectangle only when all four corners return
// the same plan: if a rival plan U beat the corner plan P anywhere inside,
// U−P — a linear function of (x, y) — would be negative at an interior
// point while non-negative at all four corners, which is impossible. Ties
// resolve identically everywhere because the optimizer keeps the first
// winner in a fixed sweep order. Disagreeing rectangles subdivide, down to
// single cells, so every cell holds exactly what Optimize returns at its
// share pair.
//
// Two caveats bound the guarantee, both covered by fallbacks rather than
// silent error: (1) an accuracy floor routes Optimize through the bucketed
// DP, whose returned plan is only approximately the envelope minimizer, so
// constrained keys use per-column subdivision with a midpoint-agreement
// rule and the differential tests pin planner-level equality; (2) a device
// energy budget makes feasibility depend on the bandwidth share (radio
// airtime stretches as b shrinks), which breaks the rectangle argument
// across columns — constrained keys therefore subdivide one bandwidth
// column at a time, where feasibility is constant. A key whose optimizer
// errors anywhere on the grid fails to build, and the planner simply keeps
// calling Optimize for it.

// shareGridOctaves fixes the grid's dynamic range: levels span
// [2^-shareGridOctaves, 1] = [1/4096, 1].
const shareGridOctaves = 12

// DefaultStepsPerOctave is the geometric grid resolution used when
// BuildOptions.Grid is the zero value: 6 levels per octave bounds the
// relative share error of quantization by 2^(1/12) ≈ 6%, uniformly across
// the twelve octaves — where a uniform 1/4096 grid has far coarser
// *relative* resolution at small shares, the regime heavily-shared servers
// live in.
const DefaultStepsPerOctave = 6

// ShareGrid is the geometric share grid frontier tables are keyed on:
// levels 2^(-i/steps) for i = 0..steps·12, descending from 1 to 1/4096.
// The zero value is invalid; use NewShareGrid.
type ShareGrid struct {
	steps  int
	levels []float64
}

// NewShareGrid builds a grid with the given levels per octave
// (<= 0 means DefaultStepsPerOctave).
func NewShareGrid(stepsPerOctave int) ShareGrid {
	if stepsPerOctave <= 0 {
		stepsPerOctave = DefaultStepsPerOctave
	}
	levels := make([]float64, stepsPerOctave*shareGridOctaves+1)
	for i := range levels {
		levels[i] = math.Pow(2, -float64(i)/float64(stepsPerOctave))
	}
	levels[0] = 1
	return ShareGrid{steps: stepsPerOctave, levels: levels}
}

// Levels returns the number of grid levels per axis.
func (g ShareGrid) Levels() int { return len(g.levels) }

// Value returns the share value of level i (descending: Value(0) == 1).
func (g ShareGrid) Value(i int) float64 { return g.levels[i] }

// Index quantizes a positive share to the nearest grid level in log space
// (ties to the larger share), clamping to [1/4096, 1]. The search is the
// binary search the planner's frontier path runs per lookup.
func (g ShareGrid) Index(s float64) int {
	n := len(g.levels)
	if s >= g.levels[0] {
		return 0
	}
	if s <= g.levels[n-1] {
		return n - 1
	}
	// First level at or below s; the nearest level is it or its (larger)
	// predecessor, split at their geometric mean.
	i := sort.Search(n, func(i int) bool { return g.levels[i] <= s })
	if s*s >= g.levels[i-1]*g.levels[i] {
		return i - 1
	}
	return i
}

// Snap rounds a share to its nearest grid level; non-positive shares
// (device-only environments) stay zero.
func (g ShareGrid) Snap(s float64) float64 {
	if s <= 0 {
		return 0
	}
	return g.levels[g.Index(s)]
}

// equal reports whether two grids have identical levels.
func (g ShareGrid) equal(o ShareGrid) bool {
	return g.steps == o.steps && len(g.levels) == len(o.levels)
}

// FrontierKey identifies one frontier table: a complete surgery problem
// minus the allocated shares. Unlike the planner's per-call memoization
// key, it includes the exit curves and the constraint fields, because a
// frontier set outlives any single planning call.
type FrontierKey struct {
	Model      *dnn.Model
	Device     *hardware.Profile
	Server     *hardware.Profile // nil = device-only (a single-entry table)
	UplinkBps  float64
	RTT        float64
	Rate       float64
	TxFactor   float64
	Difficulty workload.DifficultyKind
	Curves     ExitCurves
	// MinAccuracy, MaxDeviceEnergyJ and NoExits are part of the key — a
	// table is exact for exactly one constraint set (filtering an
	// unconstrained frontier is NOT equivalent to the constrained
	// optimizer; see LookupFiltered for the approximate alternative).
	MinAccuracy      float64
	MaxDeviceEnergyJ float64
	NoExits          bool
}

// KeyOf derives the frontier key of an environment/options pair, dropping
// the shares.
func KeyOf(m *dnn.Model, env Env, opt Options) FrontierKey {
	return FrontierKey{
		Model:            m,
		Device:           env.Device,
		Server:           env.Server,
		UplinkBps:        env.UplinkBps,
		RTT:              env.RTT,
		Rate:             env.Rate,
		TxFactor:         env.TxFactor,
		Difficulty:       env.Difficulty,
		Curves:           env.Curves,
		MinAccuracy:      opt.MinAccuracy,
		MaxDeviceEnergyJ: opt.MaxDeviceEnergyJ,
		NoExits:          opt.NoExits,
	}
}

// env reconstitutes the surgery environment at the given shares.
func (k FrontierKey) env(f, b float64) Env {
	env := Env{
		Device:     k.Device,
		Difficulty: k.Difficulty,
		Curves:     k.Curves,
		Rate:       k.Rate,
		TxFactor:   k.TxFactor,
	}
	if k.Server != nil {
		env.Server = k.Server
		env.ComputeShare = f
		env.BandwidthShare = b
		env.UplinkBps = k.UplinkBps
		env.RTT = k.RTT
	}
	return env
}

// options reconstitutes the optimizer options the table's probes run under:
// the base sweep configuration with the key's constraint fields applied.
func (k FrontierKey) options(base Options) Options {
	// Frontier tables always tabulate the free-partition problem: the
	// zero Options value would otherwise pin every probe at partition 0.
	base.FixedPartition = FreePartition
	base.MinAccuracy = k.MinAccuracy
	base.MaxDeviceEnergyJ = k.MaxDeviceEnergyJ
	base.NoExits = k.NoExits
	return base
}

// FrontierEntry is one Pareto-frontier surgery plan: a plan that wins at
// least one grid cell, so no other entry weakly dominates it on
// (FixedSec, ServerSec, TxSec) with a strict improvement (such a dominator
// would beat it at every share pair). Plan/Eval carry shared slices;
// consumers treat them as read-only.
type FrontierEntry struct {
	Plan Plan
	// Eval holds the entry's share-independent evaluation; Latency is
	// normalized to full shares and re-derived per lookup.
	Eval Eval
}

// Frontier is one key's share→plan table: the pruned frontier entries in
// canonical order plus a dense grid-cell index. Safe for concurrent reads.
type Frontier struct {
	key     FrontierKey
	grid    ShareGrid
	entries []FrontierEntry
	cells   []int32 // Levels()×Levels(), compute-major; nil for device-only
	probes  int
}

// Key returns the table's identity.
func (t *Frontier) Key() FrontierKey { return t.key }

// Grid returns the share grid the table is indexed on.
func (t *Frontier) Grid() ShareGrid { return t.grid }

// Entries returns the frontier in canonical order: descending
// share-sensitivity (ServerSec+TxSec), so the winning entry index along a
// shrinking share diagonal is monotone non-decreasing. Read-only.
func (t *Frontier) Entries() []FrontierEntry { return t.entries }

// Probes returns how many optimizer calls construction spent.
func (t *Frontier) Probes() int { return t.probes }

// Lookup returns the optimizer's plan at the given shares, which must lie
// on the table's grid for bit-identity (arbitrary shares quantize to the
// nearest level). The returned Eval matches surgery.Optimize bit for bit:
// all fields but Latency are share-independent, and Latency is re-derived
// by the same expression the optimizer uses.
func (t *Frontier) Lookup(computeShare, bandwidthShare float64) (Plan, Eval) {
	e := t.entryAt(computeShare, bandwidthShare)
	ev := e.Eval
	ev.Latency = ev.LatencyAt(envShare(computeShare), envShare(bandwidthShare))
	return e.Plan, ev
}

func (t *Frontier) entryAt(f, b float64) *FrontierEntry {
	if t.cells == nil {
		return &t.entries[0]
	}
	L := t.grid.Levels()
	return &t.entries[t.cells[t.grid.Index(f)*L+t.grid.Index(b)]]
}

// LookupFiltered returns the lowest-latency *tabulated* entry at the given
// shares that satisfies the extra filters: an expected-accuracy floor and a
// device-energy budget in joules (either <= 0 disables that filter). It
// reports ok = false when no frontier member qualifies. This is a
// frontier-relative filter — exact multi-objective SLOs belong in the key
// (which constrains the optimizer itself); the filtered scan answers
// "what-if" queries against an already-built table without re-optimizing.
func (t *Frontier) LookupFiltered(computeShare, bandwidthShare, minAccuracy, maxEnergyJ float64) (Plan, Eval, bool) {
	f, b := envShare(computeShare), envShare(bandwidthShare)
	best := -1
	bestLat := math.Inf(1)
	for i := range t.entries {
		ev := &t.entries[i].Eval
		if minAccuracy > 0 && ev.Accuracy+1e-12 < minAccuracy {
			continue
		}
		if maxEnergyJ > 0 && ev.DeviceEnergyAt(t.key.Device, b) > maxEnergyJ {
			continue
		}
		if lat := ev.LatencyAt(f, b); lat < bestLat {
			best, bestLat = i, lat
		}
	}
	if best < 0 {
		return Plan{}, Eval{}, false
	}
	e := &t.entries[best]
	ev := e.Eval
	ev.Latency = bestLat
	return e.Plan, ev, true
}

// BuildOptions configures frontier-table construction.
type BuildOptions struct {
	// Grid is the share grid (zero value = NewShareGrid(0)).
	Grid ShareGrid
	// Surgery carries the sweep configuration shared by every table
	// (ThetaGrid, AccBuckets, FixedPartition); each key's constraint
	// fields (MinAccuracy, NoExits, MaxDeviceEnergyJ) override their
	// counterparts per table.
	Surgery Options
	// MaxProbes caps the optimizer probes one table's construction may
	// spend (0 = no cap beyond the Levels()² memoized maximum). Exceeding
	// it fails the build; the caller falls back to the plain optimizer.
	MaxProbes int
	// MaxTables bounds how many tables a FrontierSet will hold
	// (0 = DefaultMaxTables).
	MaxTables int
}

// DefaultMaxTables is the FrontierSet table budget when
// BuildOptions.MaxTables is zero.
const DefaultMaxTables = 512

func (bo BuildOptions) grid() ShareGrid {
	if len(bo.Grid.levels) == 0 {
		return NewShareGrid(0)
	}
	return bo.Grid
}

func (bo BuildOptions) maxTables() int {
	if bo.MaxTables <= 0 {
		return DefaultMaxTables
	}
	return bo.MaxTables
}

// BuildFrontier tabulates one key by corner-certified subdivision (see the
// file comment). It fails — rather than tabulating approximately — when the
// optimizer reports infeasibility anywhere on the grid or the probe budget
// is exceeded; callers keep using surgery.Optimize for such keys.
func BuildFrontier(k FrontierKey, bo BuildOptions) (*Frontier, error) {
	if k.Model == nil || k.Device == nil {
		return nil, fmt.Errorf("surgery: frontier key needs a model and a device")
	}
	grid := bo.grid()
	fb := &frontierBuilder{
		key:       k,
		opt:       k.options(bo.Surgery),
		grid:      grid,
		maxProbes: bo.MaxProbes,
		sigs:      make(map[string]int32),
	}
	if k.Server == nil {
		// Device-only: shares are irrelevant, a single probe is the table.
		if _, err := fb.probeEnv(k.env(0, 0)); err != nil {
			return nil, err
		}
		return &Frontier{key: k, grid: grid, entries: fb.entries, probes: fb.probes}, nil
	}
	L := grid.Levels()
	fb.cells = make([]int32, L*L)
	fb.probeAt = make([]int32, L*L)
	for i := range fb.probeAt {
		fb.probeAt[i] = -1
	}
	var err error
	if k.MinAccuracy > 0 || k.MaxDeviceEnergyJ > 0 {
		// Constrained keys: per-bandwidth-column subdivision (feasibility
		// is constant within a column) with midpoint agreement as
		// insurance against the accuracy DP's non-envelope returns.
		for bi := 0; bi < L && err == nil; bi++ {
			err = fb.fillColumn(bi, 0, L-1)
		}
	} else {
		err = fb.fillRect(0, L-1, 0, L-1)
	}
	if err != nil {
		return nil, err
	}
	t := &Frontier{key: k, grid: grid, entries: fb.entries, cells: fb.cells, probes: fb.probes}
	t.canonicalize()
	return t, nil
}

// frontierBuilder carries one BuildFrontier invocation's working state.
type frontierBuilder struct {
	key       FrontierKey
	opt       Options
	grid      ShareGrid
	maxProbes int
	cells     []int32
	probeAt   []int32 // memoized probe result per grid point (-1 unknown)
	entries   []FrontierEntry
	sigs      map[string]int32 // plan signature → entry index
	probes    int
}

// probe memoizes one optimizer call at grid point (fi, bi) and returns the
// entry index of its plan.
func (fb *frontierBuilder) probe(fi, bi int) (int32, error) {
	idx := fi*fb.grid.Levels() + bi
	if id := fb.probeAt[idx]; id >= 0 {
		return id, nil
	}
	id, err := fb.probeEnv(fb.key.env(fb.grid.Value(fi), fb.grid.Value(bi)))
	if err != nil {
		return -1, err
	}
	fb.probeAt[idx] = id
	fb.cells[idx] = id
	return id, nil
}

func (fb *frontierBuilder) probeEnv(env Env) (int32, error) {
	if fb.maxProbes > 0 && fb.probes >= fb.maxProbes {
		return -1, fmt.Errorf("surgery: frontier for %s exceeded %d probes", fb.key.Model.Name, fb.maxProbes)
	}
	fb.probes++
	plan, ev, err := Optimize(fb.key.Model, env, fb.opt)
	if err != nil {
		return -1, err
	}
	sig := planSig(plan)
	if id, ok := fb.sigs[sig]; ok {
		return id, nil
	}
	// All Eval fields except Latency are share-independent, so the first
	// probe's evaluation stands for the plan at every grid point bit for
	// bit; Latency is normalized to full shares here and re-derived per
	// lookup.
	ev.Latency = ev.LatencyAt(1, 1)
	id := int32(len(fb.entries))
	fb.entries = append(fb.entries, FrontierEntry{Plan: plan, Eval: ev})
	fb.sigs[sig] = id
	return id, nil
}

// fillRect fills the inclusive index rectangle [i0,i1]×[j0,j1] by corner
// certification, splitting the longer dimension on disagreement. Splits are
// disjoint, so every cell is written exactly once — by its certified
// rectangle or by its own probe.
func (fb *frontierBuilder) fillRect(i0, i1, j0, j1 int) error {
	c00, err := fb.probe(i0, j0)
	if err != nil {
		return err
	}
	c01, err := fb.probe(i0, j1)
	if err != nil {
		return err
	}
	c10, err := fb.probe(i1, j0)
	if err != nil {
		return err
	}
	c11, err := fb.probe(i1, j1)
	if err != nil {
		return err
	}
	if c00 == c01 && c00 == c10 && c00 == c11 {
		fb.fill(i0, i1, j0, j1, c00)
		return nil
	}
	if i1-i0 >= j1-j0 {
		im := (i0 + i1) / 2
		if err := fb.fillRect(i0, im, j0, j1); err != nil {
			return err
		}
		return fb.fillRect(im+1, i1, j0, j1)
	}
	jm := (j0 + j1) / 2
	if err := fb.fillRect(i0, i1, j0, jm); err != nil {
		return err
	}
	return fb.fillRect(i0, i1, jm+1, j1)
}

// fillColumn fills compute-share rows [i0,i1] of bandwidth column bi,
// requiring endpoint plus midpoint agreement before filling an interval.
func (fb *frontierBuilder) fillColumn(bi, i0, i1 int) error {
	a, err := fb.probe(i0, bi)
	if err != nil {
		return err
	}
	c, err := fb.probe(i1, bi)
	if err != nil {
		return err
	}
	if i1-i0 <= 1 {
		return nil // both cells probed directly
	}
	im := (i0 + i1) / 2
	mid, err := fb.probe(im, bi)
	if err != nil {
		return err
	}
	if a == c && a == mid {
		fb.fill(i0, i1, bi, bi, a)
		return nil
	}
	if err := fb.fillColumn(bi, i0, im); err != nil {
		return err
	}
	return fb.fillColumn(bi, im+1, i1)
}

func (fb *frontierBuilder) fill(i0, i1, j0, j1 int, id int32) {
	L := fb.grid.Levels()
	for i := i0; i <= i1; i++ {
		row := fb.cells[i*L : i*L+L]
		for j := j0; j <= j1; j++ {
			row[j] = id
		}
	}
}

// canonicalize sorts the entries into frontier order and rewrites the cell
// map accordingly.
func (t *Frontier) canonicalize() {
	order := make([]int32, len(t.entries))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return entryLess(&t.entries[order[a]], &t.entries[order[b]])
	})
	perm := make([]int32, len(t.entries)) // old index → new index
	sorted := make([]FrontierEntry, len(t.entries))
	for newID, oldID := range order {
		perm[oldID] = int32(newID)
		sorted[newID] = t.entries[oldID]
	}
	t.entries = sorted
	for i, id := range t.cells {
		t.cells[i] = perm[id]
	}
}

// entryLess is the canonical frontier order: descending share-sensitivity
// (ServerSec+TxSec, the latency slope along the 1/share diagonal — the
// lower envelope's minimizer slope is non-increasing as shares shrink, so
// the diagonal winner's index is monotone), then ascending FixedSec, with
// deterministic structural tiebreaks.
func entryLess(a, b *FrontierEntry) bool {
	sa, sb := a.Eval.ServerSec+a.Eval.TxSec, b.Eval.ServerSec+b.Eval.TxSec
	if sa != sb {
		return sa > sb
	}
	if a.Eval.FixedSec != b.Eval.FixedSec {
		return a.Eval.FixedSec < b.Eval.FixedSec
	}
	if a.Eval.TxSec != b.Eval.TxSec {
		return a.Eval.TxSec < b.Eval.TxSec
	}
	if a.Plan.Partition != b.Plan.Partition {
		return a.Plan.Partition < b.Plan.Partition
	}
	if a.Plan.Theta != b.Plan.Theta {
		return a.Plan.Theta < b.Plan.Theta
	}
	return planSig(a.Plan) < planSig(b.Plan)
}

// planSig is a collision-free textual plan identity used to deduplicate
// probe results.
func planSig(p Plan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|%x", p.Partition, math.Float64bits(p.Theta))
	for _, e := range p.Exits {
		fmt.Fprintf(&sb, "|%d", e)
	}
	return sb.String()
}

// FrontierSet is a concurrency-safe collection of frontier tables sharing
// one grid and one base option set — the unit the joint planner consumes.
// An empty set is valid: every lookup misses, which still snaps the caller
// onto the geometric grid (the differential tests' optimizer arm).
type FrontierSet struct {
	bo     BuildOptions
	grid   ShareGrid
	mu     sync.RWMutex
	tables map[FrontierKey]*Frontier
	probes int64
}

// NewFrontierSet returns an empty set with the resolved grid.
func NewFrontierSet(bo BuildOptions) *FrontierSet {
	bo.Grid = bo.grid()
	return &FrontierSet{bo: bo, grid: bo.Grid, tables: make(map[FrontierKey]*Frontier)}
}

// Grid returns the set's share grid.
func (s *FrontierSet) Grid() ShareGrid { return s.grid }

// Budget returns the set's table-count capacity — BuildOptions.MaxTables
// with the default applied. Len() < Budget() means Build can still add
// tables; incremental extenders (the delta-replan path) use the headroom to
// truncate their key lists deterministically before fanning out.
func (s *FrontierSet) Budget() int { return s.bo.maxTables() }

// Len returns the number of tables held.
func (s *FrontierSet) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables)
}

// Probes returns the total optimizer probes spent building the set.
func (s *FrontierSet) Probes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.probes
}

// Get returns the table for k, or nil.
func (s *FrontierSet) Get(k FrontierKey) *Frontier {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[k]
}

// Build tabulates k if absent. Safe for concurrent use; concurrent builds
// of the same key keep the first stored table.
func (s *FrontierSet) Build(k FrontierKey) error {
	s.mu.RLock()
	_, ok := s.tables[k]
	n := len(s.tables)
	s.mu.RUnlock()
	if ok {
		return nil
	}
	if n >= s.bo.maxTables() {
		return fmt.Errorf("surgery: frontier set at capacity (%d tables)", n)
	}
	t, err := BuildFrontier(k, s.bo)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if _, ok := s.tables[k]; !ok {
		s.tables[k] = t
		s.probes += int64(t.probes)
	}
	s.mu.Unlock()
	return nil
}

// Lookup answers one surgery problem from the tables: ok reports whether
// the key is tabulated (a miss means the caller must run the optimizer —
// at grid-snapped shares, to preserve the hit/miss-independence of plans).
func (s *FrontierSet) Lookup(k FrontierKey, computeShare, bandwidthShare float64) (Plan, Eval, bool) {
	s.mu.RLock()
	t := s.tables[k]
	s.mu.RUnlock()
	if t == nil {
		return Plan{}, Eval{}, false
	}
	plan, ev := t.Lookup(computeShare, bandwidthShare)
	return plan, ev, true
}
