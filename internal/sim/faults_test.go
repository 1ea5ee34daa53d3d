package sim

import (
	"math"
	"reflect"
	"testing"

	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/netmodel"
)

func TestComputeStageNoFaults(t *testing.T) {
	d, cause := computeStage(nil, 0, 5, 2.5, math.Inf(1))
	if cause != CauseNone || d != 2.5 {
		t.Fatalf("got (%g, %q), want (2.5, none)", d, cause)
	}
}

func TestComputeStageCrashRetries(t *testing.T) {
	// Work 10 s from t=0; crash [5, 8) loses the first attempt's progress.
	// Retry starts at 8 + 0.05 backoff and runs clean.
	f := faults.MustNew(faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 5, End: 8})
	d, cause := computeStage(f, 0, 0, 10, math.Inf(1))
	if cause != CauseNone {
		t.Fatalf("cause %q", cause)
	}
	want := 8 + 0.05 + 10.0
	if math.Abs(d-want) > 1e-9 {
		t.Fatalf("duration %g, want %g", d, want)
	}
	// The same crash on another server costs nothing.
	d, cause = computeStage(f, 1, 0, 10, math.Inf(1))
	if cause != CauseNone || d != 10 {
		t.Fatalf("other server: (%g, %q)", d, cause)
	}
}

func TestComputeStageAttemptsExhausted(t *testing.T) {
	// Work 2 s; crashes at [1, 2), [3, 4) and [5, 6). Attempt 1 dies at
	// t=1, attempt 2 starts 2.05 and dies at t=3, attempt 3 starts 4.1 and
	// dies at t=5; 3 attempts -> fail at 5.
	f := faults.MustNew(
		faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 1, End: 2},
		faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 3, End: 4},
		faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 5, End: 6},
	)
	d, cause := computeStage(f, 0, 0, 2, math.Inf(1))
	if cause != CauseServerCrash {
		t.Fatalf("cause %q, want server-crash", cause)
	}
	if math.Abs(d-5) > 1e-9 {
		t.Fatalf("abort duration %g, want 5", d)
	}
}

func TestComputeStageBrownoutStretches(t *testing.T) {
	// Half capacity over [0, 10): 2 s of work takes 4 s, no retry burned.
	f := faults.MustNew(faults.Window{Kind: faults.Brownout, Server: 0, Start: 0, End: 10, Factor: 0.5})
	d, cause := computeStage(f, 0, 0, 2, math.Inf(1))
	if cause != CauseNone || math.Abs(d-4) > 1e-9 {
		t.Fatalf("got (%g, %q), want (4, none)", d, cause)
	}
	// Straddling the brown-out edge: 1 s at factor 0.5 covers 0.5 s of
	// work by t=9.5... make work 6: [0,10) at 0.5 delivers 5, then 1 more
	// at full speed -> finishes at 11.
	d, cause = computeStage(f, 0, 0, 6, math.Inf(1))
	if cause != CauseNone || math.Abs(d-11) > 1e-9 {
		t.Fatalf("straddle: got (%g, %q), want (11, none)", d, cause)
	}
}

func TestComputeStageTimeout(t *testing.T) {
	// No faults, but the task budget expires mid-service.
	d, cause := computeStage(nil, 0, 0, 10, 5)
	if cause != CauseTimeout || d != 5 {
		t.Fatalf("got (%g, %q), want (5, timeout)", d, cause)
	}
	// Already past the budget at submission.
	d, cause = computeStage(nil, 0, 7, 10, 5)
	if cause != CauseTimeout || d != 0 {
		t.Fatalf("late start: got (%g, %q), want (0, timeout)", d, cause)
	}
	// A crash whose recovery lands past the budget times out at the wall.
	f := faults.MustNew(faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 1, End: 100})
	d, cause = computeStage(f, 0, 0, 2, 5)
	if cause != CauseTimeout || math.Abs(d-5) > 1e-9 {
		t.Fatalf("crash-timeout: got (%g, %q), want (5, timeout)", d, cause)
	}
}

func TestTxStageOutageRetransmits(t *testing.T) {
	link := netmodel.NewStatic("wifi", 8e6, 0.004) // 8 Mbps, 4 ms RTT
	// 1e6 bytes = 8e6 bits = 1 s at full share. Outage [0.5, 1) kills the
	// first attempt; retransmit from scratch at 1.05.
	f := faults.MustNew(faults.Window{Kind: faults.LinkOutage, Server: 0, Start: 0.5, End: 1})
	d, cause := txStage(f, 0, link, 1e6, 0, 1, math.Inf(1))
	if cause != CauseNone {
		t.Fatalf("cause %q", cause)
	}
	want := 1 + 0.05 + 1 + 0.004
	if math.Abs(d-want) > 1e-9 {
		t.Fatalf("duration %g, want %g", d, want)
	}
	// Without faults the stage matches netmodel.TransferTime exactly.
	d, cause = txStage(nil, 0, link, 1e6, 0, 0.5, math.Inf(1))
	if cause != CauseNone || math.Abs(d-netmodel.TransferTime(link, 1e6, 0, 0.5)) > 1e-12 {
		t.Fatalf("no-fault mismatch: %g vs %g", d, netmodel.TransferTime(link, 1e6, 0, 0.5))
	}
}

func TestTxStageExhaustedAndTimeout(t *testing.T) {
	link := netmodel.NewStatic("wifi", 8e6, 0)
	f := faults.MustNew(
		faults.Window{Kind: faults.LinkOutage, Server: 0, Start: 0.5, End: 0.6},
		faults.Window{Kind: faults.LinkOutage, Server: 0, Start: 1.0, End: 1.1},
		faults.Window{Kind: faults.LinkOutage, Server: 0, Start: 1.5, End: 1.6},
	)
	// Each attempt needs 1 s of clean air; gaps between outages are too
	// short, so 3 attempts burn out: fail at the third drop.
	d, cause := txStage(f, 0, link, 1e6, 0, 1, math.Inf(1))
	if cause != CauseLinkOutage {
		t.Fatalf("cause %q, want link-outage", cause)
	}
	if math.Abs(d-1.5) > 1e-9 { // attempt 3 started 1.2, died at the 1.5 outage
		t.Fatalf("abort duration %g, want 1.5", d)
	}
	d, cause = txStage(f, 0, link, 1e6, 0, 1, 0.8)
	if cause != CauseTimeout || math.Abs(d-0.8) > 1e-9 {
		t.Fatalf("timeout: got (%g, %q), want (0.8, timeout)", d, cause)
	}
}

// TestRunWithDistantFaultsMatchesBaseline pins the fault-aware stage
// integrators to the historical path: a schedule whose only window lies
// beyond the horizon must reproduce the no-fault run record-for-record.
func TestRunWithDistantFaultsMatchesBaseline(t *testing.T) {
	for _, disc := range []Discipline{DedicatedShares, SharedFCFS} {
		base := basicScenario(t, 2, 3, disc)
		baseRes, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		faultyCfg := basicScenario(t, 2, 3, disc)
		faultyCfg.Faults = faults.MustNew(faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 1e6, End: 1e6 + 1})
		faultyRes, err := Run(faultyCfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(baseRes.Records, faultyRes.Records) {
			t.Fatalf("discipline %v: distant fault perturbed records", disc)
		}
	}
}

func TestRunUnderCrashWindow(t *testing.T) {
	cfg := basicScenario(t, 2, 3, DedicatedShares)
	// Crash the only server for a 10 s window mid-run; bound each task to
	// a 1 s budget so faults cost bounded time.
	cfg.Faults = faults.MustNew(faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 10, End: 20})
	cfg.Retry = RetryPolicy{TaskTimeout: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailureRate() == 0 {
		t.Fatal("10 s crash window produced no failures")
	}
	byCause := map[FailCause]int{}
	for _, rec := range res.Records {
		if rec.Failed {
			byCause[rec.Cause]++
		}
	}
	if byCause[CauseTimeout]+byCause[CauseServerCrash] == 0 {
		t.Fatalf("failures lack crash/timeout causes: %v", byCause)
	}
	sawFail, sawOK := false, false
	for _, rec := range res.Records {
		if rec.Failed {
			sawFail = true
			if rec.Cause == CauseNone {
				t.Fatalf("failed record without cause: %+v", rec)
			}
			if rec.Met {
				t.Fatalf("failed record marked Met: %+v", rec)
			}
			// Bounded cost: a failed task is abandoned within its budget
			// (plus nothing — the timeout is a hard wall).
			if rec.Finish-rec.Arrival > 1+1e-9 {
				t.Fatalf("failed task exceeded its budget: %+v", rec)
			}
		} else {
			sawOK = true
			if rec.Cause != CauseNone {
				t.Fatalf("successful record with cause: %+v", rec)
			}
		}
	}
	if !sawFail || !sawOK {
		t.Fatalf("want a mix of failures and successes, got fail=%v ok=%v", sawFail, sawOK)
	}
	// Determinism: the same faulty config replays byte-identically.
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Records, again.Records) {
		t.Fatal("faulty run is not deterministic")
	}
}

func TestRunRejectsFaultsUnderProcessorSharing(t *testing.T) {
	cfg := basicScenario(t, 2, 3, ProcessorSharing)
	cfg.Faults = faults.MustNew(faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 1, End: 2})
	if _, err := Run(cfg); err == nil {
		t.Fatal("faults under ProcessorSharing accepted")
	}
}
