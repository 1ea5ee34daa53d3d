package surgery

import (
	"fmt"
	"math"
	"sort"
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
// and the cells. Every cell starts unknown and is filled by the first lookup
// that lands on it, with one kernel solve at that grid point, so a table
// costs memory and optimizer work in proportion to the cells plans actually
// read. A cell where the optimizer errors (an infeasible constraint) stays
// unknown, and the error surfaces only when a plan lands there.

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
	// MinAccuracy and NoExits are part of the key — a table is exact for
	// exactly one constraint set (filtering an unconstrained frontier is NOT
	// equivalent to the constrained optimizer).
	MinAccuracy float64
	NoExits     bool
}

// KeyOf derives the frontier key of an environment/options pair, dropping
// the shares.
func KeyOf(m *dnn.Model, env Env, opt Options) FrontierKey {
	return FrontierKey{
		Model:       m,
		Device:      env.Device,
		Server:      env.Server,
		UplinkBps:   env.UplinkBps,
		RTT:         env.RTT,
		Rate:        env.Rate,
		TxFactor:    env.TxFactor,
		Difficulty:  env.Difficulty,
		Curves:      env.Curves,
		MinAccuracy: opt.MinAccuracy,
		NoExits:     opt.NoExits,
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

// Frontier is one key's share→plan table, safe for concurrent use: one mutex
// serializes the reads and fills of its cells, so a table a FrontierSet holds
// may serve any number of planners at once and keeps every cell they fill. A
// table from BuildFrontier that no set holds belongs to the one planning state
// that made it.
type Frontier struct {
	key  FrontierKey
	opt  Options // what every fill of this table runs the optimizer under
	grid ShareGrid

	// mu guards everything below. Lookup holds it while it reads or fills a
	// cell and copies the entry out after releasing it: an entry never
	// changes once appended.
	mu sync.Mutex
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

// Probes returns how many optimizer calls the table has spent.
func (t *Frontier) Probes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.probes
}

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
	t.mu.Lock()
	id, known, err := t.at(fi, bi)
	entries := t.entries
	t.mu.Unlock()
	if err != nil {
		return Plan{}, Eval{}, false, err
	}
	e := &entries[id-1]
	ev = e.Eval
	ev.Latency = ev.LatencyAt(envShare(computeShare), envShare(bandwidthShare))
	return e.Plan, ev, known, nil
}

// at returns cell (fi, bi)'s entry id, first filling the cell with the
// optimizer's answer at that grid point when it is unknown. The caller holds
// t.mu.
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
	if t.rows[fi] == nil {
		t.rows[fi] = make([]int32, len(t.rows))
	}
	t.rows[fi][bi] = id
	return id, false, nil
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
	// Surgery carries the base optimizer options. Tables tabulate the
	// free-partition problem whatever FixedPartition says, and each key's
	// constraint fields (MinAccuracy, NoExits) override their counterparts
	// per table.
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
// filled by the first Lookup that lands on it.
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

// FrontierSet is a concurrency-safe collection of frontier tables sharing one
// grid and one base option set: the long-lived memo the joint planner
// consumes. A registered table starts empty and fills a cell on its first
// lookup, so every plan that shares the set finds the cells earlier plans
// filled. An empty set is valid: the planner then keeps a private table for
// every key it needs.
type FrontierSet struct {
	bo     BuildOptions
	grid   ShareGrid
	mu     sync.RWMutex // guards tables; each table guards its own cells
	tables map[FrontierKey]*Frontier
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
// truncate their key lists deterministically before registering them.
func (s *FrontierSet) Budget() int { return s.bo.maxTables() }

// Len returns the number of tables held.
func (s *FrontierSet) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables)
}

// Probes returns the optimizer calls the set's tables have spent filling
// their cells so far.
func (s *FrontierSet) Probes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, t := range s.tables {
		n += int64(t.Probes())
	}
	return n
}

// Get returns the table for k, or nil.
func (s *FrontierSet) Get(k FrontierKey) *Frontier {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[k]
}

// Build registers k's table, every cell unknown, unless the set holds one
// already. It runs no optimizer and fails only for a key BuildFrontier
// rejects or a set at its table budget. Safe for concurrent use.
func (s *FrontierSet) Build(k FrontierKey) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[k]; ok {
		return nil
	}
	if n := len(s.tables); n >= s.bo.maxTables() {
		return fmt.Errorf("surgery: frontier set at capacity (%d tables)", n)
	}
	t, err := BuildFrontier(k, s.bo)
	if err != nil {
		return err
	}
	s.tables[k] = t
	return nil
}

// Lookup answers one surgery problem from the set, filling the cell on its
// first ask: ok is false when the key has no table or the optimizer has no
// plan at that cell.
func (s *FrontierSet) Lookup(k FrontierKey, computeShare, bandwidthShare float64) (Plan, Eval, bool) {
	t := s.Get(k)
	if t == nil {
		return Plan{}, Eval{}, false
	}
	plan, ev, _, err := t.Lookup(computeShare, bandwidthShare)
	return plan, ev, err == nil
}
