package serve

import "fmt"

// This file is the crash-recovery path: Recover rebuilds a Runtime from a
// state directory so that kill-at-any-point / recover / continue produces
// byte-identical plans, journal and metrics to a run that was never
// interrupted. The protocol has three legs:
//
//  1. The snapshot stores the runtime's folded state as it is, with the
//     journal and the full metric registry, but NOT the active plan.
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
	return rt.st.Seq
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
// A store holding WAL entries but no snapshot is refused: New and every full
// replan write the snapshot before the WAL, so the entries are the tail
// after a lost snapshot, and replaying them on a New runtime would rebuild a
// different history. After the replay the WAL is rewritten to exactly the
// valid tail (dropping a torn final line and already-folded entries). A
// snapshot is only captured where a plan was just installed: the cheap
// refresh is not memoryless — Observe prefers the current plan's server
// when a base server is down, and prices servers a sample did not observe at
// their install-time rate — so only the WAL tail reproduces it.
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
	if snap == nil {
		if len(wal) > 0 {
			return nil, fmt.Errorf("serve: store holds %d wal entries but no snapshot", len(wal))
		}
		return New(cfg)
	}
	rt, err := restoreSnapshot(cfg, snap)
	if err != nil {
		return nil, err
	}

	// Replay the tail with the store detached, so nothing is logged or
	// snapshotted twice, then rewrite the WAL to it, so a torn final line
	// cannot precede future appends as mid-file corruption. The next full
	// replan folds the tail into a fresh snapshot as usual.
	var tail []WALEntry
	rt.store = nil
	for _, e := range wal {
		if e.Seq <= snap.Seq {
			continue // already folded into the snapshot
		}
		tail = append(tail, e)
		rt.st.Seq = e.Seq - 1 // Ingest/SetPlannerThrottle re-increment to e.Seq
		switch {
		case e.Sample != nil:
			// Rejections, quarantine trips and deadline aborts are part of
			// the history being reproduced, not recovery failures.
			_, _ = rt.Ingest(*e.Sample)
		case e.Throttle > 0:
			if err := rt.SetPlannerThrottle(e.Throttle); err != nil {
				return nil, fmt.Errorf("serve: replaying wal entry %d: %w", e.Seq, err)
			}
		}
	}
	rt.store = store
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
	// Re-derive the plan (leg 2) the way New and a full replan made it,
	// then let the restored registry overwrite every series that bumped.
	if err := rt.open(snap.state, "recovery replan"); err != nil {
		return nil, err
	}
	rt.journal.Reset(snap.Journal)
	if err := rt.reg.Restore(snap.Metrics); err != nil {
		return nil, fmt.Errorf("serve: restoring metrics: %w", err)
	}
	return rt, nil
}

// captureSnapshot returns the runtime's recoverable state (leg 1), sharing
// its slices: the caller holds rt.mu (or sole access) and encodes it at once.
func (rt *Runtime) captureSnapshot() *Snapshot {
	return &Snapshot{state: rt.st, Journal: rt.journal.Events(), Metrics: rt.reg.State()}
}
