package serve

import "fmt"

// This file is the crash-recovery path: Recover rebuilds a Runtime from a
// state directory so that kill-at-any-point / recover / continue produces
// byte-identical plans, journal and metrics to a run that was never
// interrupted. The protocol has three legs:
//
//  1. The snapshot stores every scalar the runtime folded out of its
//     sample stream — clock, sample count, rates, hysteresis state,
//     quarantine table, journal, the full metric registry — but NOT the
//     active plan.
//  2. The plan is re-derived through the one install path New and every
//     full replan take (planAt at the snapshot's PlanRates, then install,
//     health reapplied): the planner is deterministic, so the plan is
//     bit-identical to the lost one. Re-derivation bumps the same series
//     the original planning did, and the registry is restored after it,
//     overwriting each of them with its captured value.
//  3. The WAL tail (entries with Seq beyond the snapshot's) replays
//     through the ordinary Ingest path, reproducing every decision —
//     including rejections, quarantine trips and deadline aborts — the
//     crashed process made after its last snapshot.

// Seq returns the WAL sequence number of the last ingested mutation — how
// many samples and control changes this runtime (or its crashed
// predecessors) has consumed. It is not a trace ordinal: throttle changes
// count too.
func (rt *Runtime) Seq() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.seq
}

// Close releases the runtime's store (nil-safe, idempotent). The runtime
// remains usable in-memory afterwards, but nothing further is persisted.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.store == nil {
		return nil
	}
	err := rt.store.Close()
	rt.store = nil
	return err
}

// Recover returns the runtime cfg.Store holds: it loads the snapshot and
// WAL and rebuilds the runtime they describe. A store holding neither, or
// no store at all, gets a New runtime — the one open-or-resume rule. cfg
// must carry the same scenario, planner options, policy and frontier flag
// the crashed runtime ran with — the store persists folded state, not
// configuration.
//
// A missing snapshot (a crash before the construction-time snapshot
// landed) falls back to constructing from cfg and replaying the whole
// WAL. After the replay the WAL is rewritten to exactly the valid tail
// (dropping a torn final line and already-folded entries); the snapshot is
// left untouched — snapshots are only ever captured at construction and
// full-replan boundaries, where the dispatcher is pristine and therefore
// re-derivable, never mid-stream where its cheap-refresh state depends on
// the last observed sample.
func Recover(cfg Config) (*Runtime, error) {
	store := cfg.Store
	if store == nil {
		return New(cfg)
	}
	snap, err := store.LoadSnapshot()
	if err != nil {
		return nil, err
	}
	wal, err := store.LoadWAL()
	if err != nil {
		return nil, err
	}
	if snap == nil && len(wal) == 0 {
		return New(cfg)
	}
	var rt *Runtime
	var fromSeq uint64
	if snap == nil {
		// Suppress New's own snapshot/WAL writes until the replay is done;
		// the loaded WAL is the authoritative history.
		cfg.Store = nil
		if rt, err = New(cfg); err != nil {
			return nil, err
		}
		rt.store = store
	} else {
		if rt, err = restoreSnapshot(cfg, snap); err != nil {
			return nil, err
		}
		fromSeq = snap.Seq
	}

	// Replay the tail, then rewrite the WAL to it, so a torn final line
	// cannot precede future appends as mid-file corruption. The next full
	// replan folds the tail into a fresh snapshot as usual.
	var tail []WALEntry
	rt.recovering = true
	for _, e := range wal {
		if e.Seq <= fromSeq {
			continue // already folded into the snapshot
		}
		tail = append(tail, e)
		rt.mu.Lock()
		rt.seq = e.Seq - 1 // Ingest/SetPlannerThrottle re-increment to e.Seq
		rt.mu.Unlock()
		switch {
		case e.Sample != nil:
			// Rejections, quarantine trips and deadline aborts are part of
			// the history being reproduced, not recovery failures.
			_, _ = rt.Ingest(*e.Sample)
		case e.Throttle > 0:
			if err := rt.SetPlannerThrottle(e.Throttle); err != nil {
				rt.recovering = false
				return nil, fmt.Errorf("serve: replaying wal entry %d: %w", e.Seq, err)
			}
		}
	}
	rt.recovering = false
	if err := store.ResetWAL(tail); err != nil {
		return nil, err
	}
	return rt, nil
}

// restoreSnapshot rebuilds the runtime a snapshot describes (legs 1 and 2
// of the protocol; the caller replays the WAL tail).
func restoreSnapshot(cfg Config, snap *Snapshot) (*Runtime, error) {
	rt, err := newShell(cfg)
	if err != nil {
		return nil, err
	}
	if len(snap.Rates) != len(cfg.Scenario.Servers) {
		return nil, fmt.Errorf("serve: snapshot covers %d servers, scenario has %d", len(snap.Rates), len(cfg.Scenario.Servers))
	}
	rt.journal.Reset(snap.Journal)
	rt.seq = snap.Seq
	rt.ingested = snap.Samples
	rt.clock = snap.Clock
	rt.rates = append([]float64(nil), snap.Rates...)
	rt.planRates = append([]float64(nil), snap.PlanRates...)
	rt.down = make([]bool, len(cfg.Scenario.Servers))
	copy(rt.down, snap.Down)
	rt.lastFull = snap.LastFull
	rt.lastAbort = snap.LastAbort
	rt.fullTimes = append([]float64(nil), snap.FullTimes...)
	if snap.Throttle > 0 {
		rt.throttle = snap.Throttle
	}
	for src, st := range snap.Sources {
		rt.sources[src] = &sourceState{strikes: st.Strikes, until: st.Until}
	}

	// Re-derive the plan (leg 2) the way New and a full replan made it,
	// then let the restored registry overwrite every series that bumped.
	frozen, plan, err := rt.planAt(rt.planRates)
	if err != nil {
		return nil, fmt.Errorf("serve: recovery replan: %w", err)
	}
	if err := rt.install(frozen, plan); err != nil {
		return nil, fmt.Errorf("serve: recovery: %w", err)
	}
	if err := rt.reg.Restore(snap.Metrics); err != nil {
		return nil, fmt.Errorf("serve: restoring metrics: %w", err)
	}
	return rt, nil
}

// captureSnapshot freezes the runtime's recoverable state (leg 1). Caller
// holds rt.mu or has exclusive access.
func (rt *Runtime) captureSnapshot() *Snapshot {
	snap := &Snapshot{
		Seq:       rt.seq,
		Samples:   rt.ingested,
		Clock:     rt.clock,
		Rates:     append([]float64(nil), rt.rates...),
		PlanRates: append([]float64(nil), rt.planRates...),
		Down:      append([]bool(nil), rt.down...),
		LastFull:  rt.lastFull,
		LastAbort: rt.lastAbort,
		FullTimes: append([]float64(nil), rt.fullTimes...),
		Throttle:  rt.throttle,
		Journal:   rt.journal.Events(),
		Metrics:   rt.reg.State(),
	}
	for src, q := range rt.sources {
		if q.strikes == 0 && q.until == 0 {
			continue // fully clear standing carries no information
		}
		if snap.Sources == nil {
			snap.Sources = make(map[string]SourceState)
		}
		snap.Sources[src] = SourceState{Strikes: q.strikes, Until: q.until}
	}
	return snap
}
