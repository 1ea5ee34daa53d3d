package experiments

import (
	"fmt"
	"os"

	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/serve"
)

// e25ChaosRecovery replays one drifting-bandwidth telemetry trace through
// the crash-safe control plane four times: undisturbed, with the process
// killed and recovered from its snapshot+WAL store six times, with the
// planner throttled into replan-deadline aborts, and with a corrupt
// telemetry source striking until quarantined. The claims under test:
// recovery is exact (the crashing run's journal, metrics and final plan
// are byte-identical to the undisturbed run's), deadline aborts degrade to
// stale-plan serving instead of erroring, and quarantine contains a bad
// source without losing the stream.
func e25ChaosRecovery(r *Report) error {
	const (
		horizon = 240.0
		period  = 5.0
	)
	sched := faults.MustNew(
		faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 60, End: 100},
	)
	build, trace, err := fadingStudy(51, sched, horizon, period)
	if err != nil {
		return err
	}

	policy := serve.Robust()

	// Per-arm chaos. The slow arm throttles to 0.001 over two windows (a
	// 2-op budget no replan fits); the corrupt arm mangles six samples from
	// one source (three strikes trip quarantine, the rest drop muted); the
	// crash arm kills the process after every eighth sample.
	var crashes []faults.ChaosEvent
	for at := 5; at < len(trace); at += 8 {
		crashes = append(crashes, faults.ChaosEvent{Kind: faults.CrashAfterSample, Sample: at})
	}
	slow := []faults.ChaosEvent{
		{Kind: faults.SlowPlanner, Sample: 8, Until: 16, Factor: 0.001},
		{Kind: faults.SlowPlanner, Sample: 30, Until: 38, Factor: 0.001},
	}
	var corrupt []faults.ChaosEvent
	for i, at := range []int{6, 7, 9, 10, 12, 14} {
		corrupt = append(corrupt, faults.ChaosEvent{
			Kind: faults.CorruptSample, Sample: at,
			Corrupt: faults.CorruptKind(i % 4),
		})
	}

	type armSpec struct {
		name   string
		events []faults.ChaosEvent
		store  bool
	}
	arms := []armSpec{
		{"calm", nil, false},
		{"crash", crashes, true},
		{"slow-planner", slow, false},
		{"corrupt", corrupt, false},
	}
	type armResult struct {
		res                 *serve.ChaosResult
		fulls, aborted      int64
		qdrops, quarantined int64
	}
	results := make([]armResult, len(arms))
	err = forEachArm(len(arms), func(ai int) error {
		cfg := serve.Config{Scenario: build(), Policy: policy}
		if arms[ai].store {
			dir, err := os.MkdirTemp("", "e25-chaos-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			store, err := serve.OpenStore(dir)
			if err != nil {
				return err
			}
			cfg.Store = store
		}
		chaos, err := faults.NewChaos(arms[ai].events...)
		if err != nil {
			return err
		}
		res, err := serve.RunChaos(cfg, trace, chaos)
		if err != nil {
			return fmt.Errorf("%s: %w", arms[ai].name, err)
		}
		defer res.Runtime.Close()
		reg := res.Runtime.Metrics()
		results[ai] = armResult{
			res:         res,
			fulls:       reg.Counter("serve.replans.full").Value(),
			aborted:     reg.Counter("serve.replans.aborted").Value(),
			qdrops:      reg.Counter("serve.quarantine.dropped").Value(),
			quarantined: reg.Counter("serve.quarantine.quarantined").Value(),
		}
		return nil
	})
	if err != nil {
		return err
	}

	calm, crash, slowArm, corr := &results[0], &results[1], &results[2], &results[3]
	fidelity := 0.0
	if serve.Diff(calm.res.Runtime, crash.res.Runtime) == nil {
		fidelity = 1
	}
	attempts := slowArm.fulls + slowArm.aborted
	deadlineHit := 0.0
	if attempts > 0 {
		deadlineHit = float64(slowArm.aborted) / float64(attempts)
	}

	t := r.table(fmt.Sprintf("Chaos replay over one %g s trace (%d samples)", horizon, len(trace)),
		"arm", "crashes", "full-replans", "deadline-aborts", "rejections", "quarantined", "muted-drops")
	for ai, res := range results {
		t.AddRow(arms[ai].name, float64(res.res.Crashes), float64(res.fulls), float64(res.aborted),
			float64(res.res.Rejections), float64(res.quarantined), float64(res.qdrops))
	}

	r.Metrics["recovery_fidelity"] = fidelity
	r.Metrics["crashes"] = float64(crash.res.Crashes)
	r.Metrics["deadline_hit_rate"] = deadlineHit
	r.Metrics["stale_serves"] = float64(slowArm.aborted)
	r.Metrics["quarantine_drops"] = float64(corr.qdrops)

	r.note("recovery fidelity after %d kill/recover cycles: %.0f (1 = journal, metrics and final plan byte-identical to the undisturbed run)",
		crash.res.Crashes, fidelity)
	r.note("slow planner: %d of %d replan attempts hit the deadline and served the stale plan instead", slowArm.aborted, attempts)
	r.note("corrupt source: %d samples rejected, quarantined %d time(s), %d samples dropped while muted",
		corr.res.Rejections, corr.quarantined, corr.qdrops)
	if fidelity != 1 {
		r.note("WARNING: crash recovery diverged from the undisturbed run — the snapshot/WAL protocol is broken")
	}
	if crash.res.Crashes == 0 {
		r.note("WARNING: the crash arm never crashed; the chaos schedule is vacuous")
	}
	if slowArm.aborted == 0 {
		r.note("WARNING: the slow-planner arm never hit the replan deadline")
	}
	if corr.quarantined == 0 {
		r.note("WARNING: the corrupt arm never tripped quarantine")
	}
	return nil
}
