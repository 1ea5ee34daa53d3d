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

// This file implements Pareto-frontier surgery tables: per (model, device,
// server, link, constraint) key, the map from allocated (compute, bandwidth)
// shares to the optimizer's plan, over a small geometric share grid. A table
// is the planner's memo for its innermost kernel: a lookup is a
// binary-searched grid quantization plus a cell read, and returns results
// bit-identical to Optimize at every grid point.
//
// A table holds two things: the key's kernel — the share-independent half of
// Optimize, built by the table's first fill and shared by every later one —
// and the cells. A cell is filled in one of two ways. On first query, by one
// kernel solve at that grid point (Frontier.Lookup) — a table costs memory in
// proportion to the cells touched, which is what the planner runs keys nobody
// precomputed on. Or in bulk, by corner certification (FrontierSet.Build),
// the eager warm-up that fills every cell with far fewer optimizer calls
// than cells.
//
// Certification rests on the latency decomposition (see Eval): for a fixed
// plan,
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
// errors anywhere on the grid fails to certify; the planner then answers it
// cell by cell, and the error surfaces only if a plan actually lands there.

// shareGridOctaves fixes the grid's dynamic range: levels span
// [2^-shareGridOctaves, 1] = [1/4096, 1].
const shareGridOctaves = 12

// DefaultStepsPerOctave is the geometric grid resolution: 6 levels per
// octave bounds the relative share error of quantization by 2^(1/12) ≈ 6%,
// uniformly across the twelve octaves — where a uniform 1/4096 grid has far
// coarser *relative* resolution at small shares, the regime heavily-shared
// servers live in.
const DefaultStepsPerOctave = 6

// ShareGrid is the geometric share grid frontier tables are keyed on:
// levels 2^(-i/steps) for i = 0..steps·12, descending from 1 to 1/4096.
// The zero value is invalid; use NewShareGrid.
type ShareGrid struct {
	levels []float64
}

// defaultShareGrid is the grid every production table and plan uses; grids
// are immutable, so one instance serves them all.
var defaultShareGrid = newShareGrid(DefaultStepsPerOctave)

// NewShareGrid returns the grid with the given levels per octave
// (<= 0 means DefaultStepsPerOctave).
func NewShareGrid(stepsPerOctave int) ShareGrid {
	if stepsPerOctave <= 0 || stepsPerOctave == DefaultStepsPerOctave {
		return defaultShareGrid
	}
	return newShareGrid(stepsPerOctave)
}

func newShareGrid(stepsPerOctave int) ShareGrid {
	levels := make([]float64, stepsPerOctave*shareGridOctaves+1)
	for i := range levels {
		levels[i] = math.Pow(2, -float64(i)/float64(stepsPerOctave))
	}
	levels[0] = 1
	return ShareGrid{levels: levels}
}

// Levels returns the number of grid levels per axis.
func (g ShareGrid) Levels() int { return len(g.levels) }

// Value returns the share value of level i (descending: Value(0) == 1).
func (g ShareGrid) Value(i int) float64 { return g.levels[i] }

// Index quantizes a positive share to the nearest grid level in log space
// (ties to the larger share), clamping to [1/4096, 1]. It is the one place a
// share becomes a grid level: Snap and every table lookup go through it.
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

// FrontierKey identifies one frontier table: a complete surgery problem
// minus the allocated shares — exit curves and constraint fields included,
// because a frontier set outlives any single planning call.
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
	// optimizer).
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

// Frontier is one key's share→plan table. It is not safe for concurrent
// fills; the sharing contract is ownership. A certified table (one a
// FrontierSet holds) has every cell filled before anyone else can see it, so
// its lookups only read and one Options.Frontiers may serve any number of
// goroutines. A table from BuildFrontier fills on demand and belongs to the one
// planning state that made it.
type Frontier struct {
	key  FrontierKey
	opt  Options // what every fill of this table runs the optimizer under
	grid ShareGrid
	// rows[fi] holds compute level fi's cells, one per bandwidth level, and
	// is allocated when the row's first cell is filled, so memory follows the
	// cells touched rather than Levels()². A cell is 1 + the index of its
	// entry, 0 while unknown. A device-only key has one row of one cell.
	rows    [][]int32
	entries []FrontierEntry
	probes  int
	// kernel is what every fill solves against, built (or found infeasible, for
	// good) by the first one; it lives exactly as long as the table.
	kernel    *kernel
	kernelErr error
}

// Key returns the table's identity.
func (t *Frontier) Key() FrontierKey { return t.key }

// Grid returns the share grid the table is indexed on.
func (t *Frontier) Grid() ShareGrid { return t.grid }

// Entries returns the plans that have won at least one filled cell. A table
// filled by FrontierSet.Build lists them in canonical order: descending
// share-sensitivity (ServerSec+TxSec), so the winning entry index along a
// shrinking share diagonal is monotone non-decreasing. Read-only.
func (t *Frontier) Entries() []FrontierEntry { return t.entries }

// Probes returns how many optimizer calls the table has spent.
func (t *Frontier) Probes() int { return t.probes }

// Lookup returns the optimizer's plan at the given shares, which must lie
// on the table's grid for bit-identity (arbitrary shares quantize to the
// nearest level). The returned Eval matches surgery.Optimize bit for bit:
// all fields but Latency are share-independent, and Latency is re-derived
// by the same expression the optimizer uses. known reports that the cell was
// already filled; otherwise this call ran the optimizer at the cell's grid
// point, whose error (an infeasible constraint) is returned and leaves the
// cell unknown.
func (t *Frontier) Lookup(computeShare, bandwidthShare float64) (plan Plan, ev Eval, known bool, err error) {
	fi, bi := 0, 0
	if t.key.Server != nil {
		fi, bi = t.grid.Index(computeShare), t.grid.Index(bandwidthShare)
	}
	id, known, err := t.at(fi, bi)
	if err != nil {
		return Plan{}, Eval{}, false, err
	}
	e := &t.entries[id-1]
	ev = e.Eval
	ev.Latency = ev.LatencyAt(envShare(computeShare), envShare(bandwidthShare))
	return e.Plan, ev, known, nil
}

// at returns cell (fi, bi)'s entry id, first filling the cell with the
// optimizer's answer at that grid point when it is unknown.
func (t *Frontier) at(fi, bi int) (id int32, known bool, err error) {
	if row := t.rows[fi]; row != nil && row[bi] != 0 {
		return row[bi], true, nil
	}
	t.probes++
	if t.kernel == nil && t.kernelErr == nil {
		// Every grid share is valid, so one validation stands for all fills.
		t.kernel, t.kernelErr = newKernel(t.key.Model, t.key.env(1, 1), t.opt)
	}
	if t.kernelErr != nil {
		return 0, false, t.kernelErr
	}
	plan, ev, err := t.kernel.solve(t.grid.Value(fi), t.grid.Value(bi))
	if err != nil {
		return 0, false, err
	}
	id = t.intern(plan, ev)
	t.row(fi)[bi] = id
	return id, false, nil
}

// row returns compute level fi's cells, allocating them on first touch.
func (t *Frontier) row(fi int) []int32 {
	if t.rows[fi] == nil {
		t.rows[fi] = make([]int32, len(t.rows))
	}
	return t.rows[fi]
}

// intern returns the id (index + 1) of plan's entry, appending it when the
// plan is new to the table.
func (t *Frontier) intern(plan Plan, ev Eval) int32 {
	for i := range t.entries {
		if samePlan(&t.entries[i].Plan, &plan) {
			return int32(i + 1)
		}
	}
	// All Eval fields except Latency are share-independent, so the first
	// probe's evaluation stands for the plan at every grid point bit for
	// bit; Latency is normalized to full shares here and re-derived per
	// lookup.
	ev.Latency = ev.LatencyAt(1, 1)
	t.entries = append(t.entries, FrontierEntry{Plan: plan, Eval: ev})
	return int32(len(t.entries))
}

func samePlan(a, b *Plan) bool {
	if a.Partition != b.Partition || math.Float64bits(a.Theta) != math.Float64bits(b.Theta) || len(a.Exits) != len(b.Exits) {
		return false
	}
	for i, e := range a.Exits {
		if b.Exits[i] != e {
			return false
		}
	}
	return true
}

// BuildOptions configures frontier-table construction.
type BuildOptions struct {
	// Surgery carries the sweep configuration shared by every table
	// (ThetaGrid). Tables tabulate the free-partition problem whatever
	// FixedPartition says, and each key's constraint fields (MinAccuracy,
	// NoExits, MaxDeviceEnergyJ) override their counterparts per table.
	Surgery Options
	// MaxTables bounds how many tables a FrontierSet will hold
	// (0 = DefaultMaxTables).
	MaxTables int

	// grid overrides the share grid (zero value = NewShareGrid(0)). Only this
	// package's tests set it, to sweep coarse grids exhaustively: the planner
	// snaps to the default grid whether or not it is handed tables, so a
	// production set must never be built on another.
	grid ShareGrid
}

// DefaultMaxTables is the FrontierSet table budget when
// BuildOptions.MaxTables is zero.
const DefaultMaxTables = 512

func (bo BuildOptions) shareGrid() ShareGrid {
	if len(bo.grid.levels) == 0 {
		return NewShareGrid(0)
	}
	return bo.grid
}

func (bo BuildOptions) maxTables() int {
	if bo.MaxTables <= 0 {
		return DefaultMaxTables
	}
	return bo.MaxTables
}

// BuildFrontier returns k's table with every cell unknown: each cell is
// filled by the first Lookup that lands on it, or all of them at once by
// FrontierSet.Build.
func BuildFrontier(k FrontierKey, bo BuildOptions) (*Frontier, error) {
	if k.Model == nil || k.Device == nil {
		return nil, fmt.Errorf("surgery: frontier key needs a model and a device")
	}
	t := &Frontier{key: k, opt: k.options(bo.Surgery), grid: bo.shareGrid()}
	n := 1 // device-only: shares are irrelevant, a single cell is the table
	if k.Server != nil {
		n = t.grid.Levels()
	}
	t.rows = make([][]int32, n)
	return t, nil
}

// certify fills every cell of a table nobody else can see yet by
// corner-certified subdivision (see the file comment) and puts the entries in
// canonical order. It fails — rather than tabulating approximately — when the
// optimizer reports infeasibility anywhere on the grid.
func (t *Frontier) certify() error {
	last := len(t.rows) - 1
	var err error
	if t.key.MinAccuracy > 0 || t.key.MaxDeviceEnergyJ > 0 {
		// Constrained keys: per-bandwidth-column subdivision (feasibility
		// is constant within a column) with midpoint agreement as
		// insurance against the accuracy DP's non-envelope returns.
		for bi := 0; bi <= last && err == nil; bi++ {
			err = t.fillColumn(bi, 0, last)
		}
	} else {
		err = t.fillRect(0, last, 0, last)
	}
	if err != nil {
		return err
	}
	t.canonicalize()
	return nil
}

// probe is at for the certifier, which only wants the id.
func (t *Frontier) probe(fi, bi int) (int32, error) {
	id, _, err := t.at(fi, bi)
	return id, err
}

// fillRect fills the inclusive index rectangle [i0,i1]×[j0,j1] by corner
// certification, splitting the longer dimension on disagreement. Splits are
// disjoint, so every cell is written exactly once — by its certified
// rectangle or by its own probe.
func (t *Frontier) fillRect(i0, i1, j0, j1 int) error {
	c00, err := t.probe(i0, j0)
	if err != nil {
		return err
	}
	c01, err := t.probe(i0, j1)
	if err != nil {
		return err
	}
	c10, err := t.probe(i1, j0)
	if err != nil {
		return err
	}
	c11, err := t.probe(i1, j1)
	if err != nil {
		return err
	}
	if c00 == c01 && c00 == c10 && c00 == c11 {
		t.fill(i0, i1, j0, j1, c00)
		return nil
	}
	if i1-i0 >= j1-j0 {
		im := (i0 + i1) / 2
		if err := t.fillRect(i0, im, j0, j1); err != nil {
			return err
		}
		return t.fillRect(im+1, i1, j0, j1)
	}
	jm := (j0 + j1) / 2
	if err := t.fillRect(i0, i1, j0, jm); err != nil {
		return err
	}
	return t.fillRect(i0, i1, jm+1, j1)
}

// fillColumn fills compute-share rows [i0,i1] of bandwidth column bi,
// requiring endpoint plus midpoint agreement before filling an interval.
func (t *Frontier) fillColumn(bi, i0, i1 int) error {
	a, err := t.probe(i0, bi)
	if err != nil {
		return err
	}
	c, err := t.probe(i1, bi)
	if err != nil {
		return err
	}
	if i1-i0 <= 1 {
		return nil // both cells probed directly
	}
	im := (i0 + i1) / 2
	mid, err := t.probe(im, bi)
	if err != nil {
		return err
	}
	if a == c && a == mid {
		t.fill(i0, i1, bi, bi, a)
		return nil
	}
	if err := t.fillColumn(bi, i0, im); err != nil {
		return err
	}
	return t.fillColumn(bi, im+1, i1)
}

func (t *Frontier) fill(i0, i1, j0, j1 int, id int32) {
	for i := i0; i <= i1; i++ {
		row := t.row(i)
		for j := j0; j <= j1; j++ {
			row[j] = id
		}
	}
}

// canonicalize sorts the entries into frontier order and rewrites the cells
// accordingly.
func (t *Frontier) canonicalize() {
	entries := t.entries
	order := make([]int32, len(entries))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return entryLess(&entries[order[a]], &entries[order[b]])
	})
	perm := make([]int32, len(entries)) // old index → new index
	sorted := make([]FrontierEntry, len(entries))
	for newID, oldID := range order {
		perm[oldID] = int32(newID)
		sorted[newID] = entries[oldID]
	}
	t.entries = sorted
	for _, row := range t.rows {
		for bi, id := range row {
			if id != 0 {
				row[bi] = perm[id-1] + 1
			}
		}
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

// planSig is a collision-free textual plan identity, the canonical order's
// last tiebreak.
func planSig(p Plan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|%x", p.Partition, math.Float64bits(p.Theta))
	for _, e := range p.Exits {
		fmt.Fprintf(&sb, "|%d", e)
	}
	return sb.String()
}

// FrontierSet is a concurrency-safe collection of fully tabulated frontier
// tables sharing one grid and one base option set — the precomputed warm-up
// the joint planner consumes. An empty set is valid: the planner then fills
// every table it needs on demand.
type FrontierSet struct {
	bo     BuildOptions
	grid   ShareGrid
	mu     sync.RWMutex
	tables map[FrontierKey]*Frontier
	probes int64
}

// NewFrontierSet returns an empty set with the resolved grid.
func NewFrontierSet(bo BuildOptions) *FrontierSet {
	bo.grid = bo.shareGrid()
	return &FrontierSet{bo: bo, grid: bo.grid, tables: make(map[FrontierKey]*Frontier)}
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

// Build tabulates k if absent, filling every cell of its table by corner
// certification. Safe for concurrent use; concurrent builds of the same key
// keep the first stored table.
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
	if err == nil {
		err = t.certify()
	}
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
// the key is tabulated.
func (s *FrontierSet) Lookup(k FrontierKey, computeShare, bandwidthShare float64) (Plan, Eval, bool) {
	t := s.Get(k)
	if t == nil {
		return Plan{}, Eval{}, false
	}
	plan, ev, _, err := t.Lookup(computeShare, bandwidthShare)
	return plan, ev, err == nil
}
