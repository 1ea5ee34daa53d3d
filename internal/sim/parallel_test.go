package sim

import (
	"math"
	"reflect"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// parallelScenario builds a multi-server scenario that exercises every
// component shape: three servers with uneven user populations plus two
// local-only users.
func parallelScenario(t *testing.T, disc Discipline) Config {
	t.Helper()
	dev1, _ := hardware.ByName("rpi4")
	dev2, _ := hardware.ByName("phone-soc")
	srv, _ := hardware.ByName("edge-gpu-t4")
	m := dnn.ResNet18()
	cand := m.ExitCandidates()

	cfg := Config{Discipline: disc, KeepRecords: true}
	for s := 0; s < 3; s++ {
		link := netmodel.NewStatic("wifi", netmodel.Mbps(40+10*float64(s)), 0.004)
		cfg.Servers = append(cfg.Servers, ServerConfig{Profile: srv, Link: link})
	}
	perServer := []int{4, 1, 3} // uneven populations
	ui := 0
	for s, n := range perServer {
		for k := 0; k < n; k++ {
			dev := dev1
			if ui%2 == 1 {
				dev = dev2
			}
			tasks := workload.Spec{
				User: ui, Rate: 2, Arrivals: workload.Poisson,
				Difficulty: workload.UniformDifficulty, Deadline: 0.3,
				Seed: int64(500 + ui),
			}.Generate(40)
			cfg.Users = append(cfg.Users, UserConfig{
				Plan:   surgery.Plan{Model: m, Exits: cand[1:3], Theta: 0.2, Partition: 3},
				Device: dev, Server: s,
				ComputeShare: 1 / float64(n), BandwidthShare: 1 / float64(n),
				Tasks: tasks,
			})
			ui++
		}
	}
	for k := 0; k < 2; k++ {
		tasks := workload.Spec{
			User: ui, Rate: 3, Arrivals: workload.Poisson,
			Difficulty: workload.EasyBiased, Deadline: 0.5,
			Seed: int64(900 + ui),
		}.Generate(40)
		cfg.Users = append(cfg.Users, UserConfig{
			Plan:   surgery.LocalOnly(m),
			Device: dev2, Server: -1,
			Tasks: tasks,
		})
		ui++
	}
	return cfg
}

// mixedFaults strikes all three servers with all three fault kinds.
func mixedFaults() *faults.Schedule {
	return faults.MustNew(
		faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 8, End: 11},
		faults.Window{Kind: faults.LinkOutage, Server: 1, Start: 5, End: 6},
		faults.Window{Kind: faults.Brownout, Server: 2, Start: 10, End: 20, Factor: 0.4},
		faults.Window{Kind: faults.LinkOutage, Server: 0, Start: 25, End: 26},
	)
}

// TestParallelSimMatchesSequential is the tentpole's differential proof:
// across all disciplines, fault schedules and horizon/warmup settings, the
// sharded parallel run must be bit-identical to the sequential run.
func TestParallelSimMatchesSequential(t *testing.T) {
	for _, disc := range []Discipline{DedicatedShares, SharedFCFS, ProcessorSharing} {
		for _, faulty := range []bool{false, true} {
			if faulty && disc == ProcessorSharing {
				continue // faults are rejected under PS
			}
			for _, bounded := range []bool{false, true} {
				cfg := parallelScenario(t, disc)
				if faulty {
					cfg.Faults = mixedFaults()
					cfg.Retry = RetryPolicy{TaskTimeout: 2}
				}
				if bounded {
					cfg.Horizon = 30
					cfg.Warmup = 5
				}

				seq := cfg
				seq.Parallelism = 1
				seqRes, err := Run(seq)
				if err != nil {
					t.Fatal(err)
				}
				par := cfg
				par.Parallelism = 8
				parRes, err := Run(par)
				if err != nil {
					t.Fatal(err)
				}

				name := func() string {
					return "disc=" + map[Discipline]string{
						DedicatedShares: "dedicated", SharedFCFS: "fcfs", ProcessorSharing: "ps",
					}[disc] + map[bool]string{true: " faulty", false: ""}[faulty] +
						map[bool]string{true: " bounded", false: ""}[bounded]
				}()
				if len(seqRes.Records) == 0 {
					t.Fatalf("%s: empty run proves nothing", name)
				}
				if !reflect.DeepEqual(seqRes.Records, parRes.Records) {
					t.Errorf("%s: records differ", name)
				}
				if !reflect.DeepEqual(seqRes.PerUser, parRes.PerUser) {
					t.Errorf("%s: per-user stats differ", name)
				}
				if !reflect.DeepEqual(seqRes.ServerUtil, parRes.ServerUtil) {
					t.Errorf("%s: server utilizations differ: %v vs %v", name, seqRes.ServerUtil, parRes.ServerUtil)
				}
				if seqRes.Horizon != parRes.Horizon || seqRes.Events != parRes.Events {
					t.Errorf("%s: horizon/events differ: (%g,%d) vs (%g,%d)",
						name, seqRes.Horizon, seqRes.Events, parRes.Horizon, parRes.Events)
				}
				if seqRes.Latencies().Mean() != parRes.Latencies().Mean() ||
					seqRes.DeadlineRate() != parRes.DeadlineRate() ||
					seqRes.FailureRate() != parRes.FailureRate() ||
					seqRes.MeanAccuracy() != parRes.MeanAccuracy() ||
					seqRes.MeanDeviceEnergy() != parRes.MeanDeviceEnergy() {
					t.Errorf("%s: pooled aggregates differ", name)
				}
				if !reflect.DeepEqual(seqRes.FailuresByCause(), parRes.FailuresByCause()) {
					t.Errorf("%s: failure causes differ", name)
				}
			}
		}
	}
}

// TestDroppedRecordsKeepAggregates verifies KeepRecords=false changes only
// the Records slice: every streaming aggregate matches the record-keeping
// run exactly.
func TestDroppedRecordsKeepAggregates(t *testing.T) {
	full := parallelScenario(t, SharedFCFS)
	fullRes, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	lean := parallelScenario(t, SharedFCFS)
	lean.KeepRecords = false
	leanRes, err := Run(lean)
	if err != nil {
		t.Fatal(err)
	}
	if leanRes.Records != nil {
		t.Fatal("KeepRecords=false retained records")
	}
	if !reflect.DeepEqual(fullRes.PerUser, leanRes.PerUser) {
		t.Error("per-user stats depend on KeepRecords")
	}
	if fullRes.Latencies().Mean() != leanRes.Latencies().Mean() ||
		fullRes.DeadlineRate() != leanRes.DeadlineRate() ||
		fullRes.MeanAccuracy() != leanRes.MeanAccuracy() {
		t.Error("pooled aggregates depend on KeepRecords")
	}
}

// TestPooledAggregatesExcludeFailed pins the censoring contract the
// documentation promises: failed tasks are excluded from the pooled
// accuracy/energy means (they used to be averaged in as zeros), and the
// pooled aggregates agree exactly with a manual per-user reduction.
func TestPooledAggregatesExcludeFailed(t *testing.T) {
	cfg := basicScenario(t, 2, 3, DedicatedShares)
	cfg.Faults = faults.MustNew(faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 10, End: 20})
	cfg.Retry = RetryPolicy{TaskTimeout: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailureRate() == 0 {
		t.Fatal("scenario produced no failures; censoring not exercised")
	}
	// Reference values straight from the records.
	var accSum, enSum float64
	var ok int
	for _, rec := range res.Records {
		if rec.Failed {
			continue
		}
		accSum += rec.Accuracy
		enSum += rec.EnergyJ
		ok++
	}
	wantAcc := accSum / float64(ok)
	if math.Abs(res.MeanAccuracy()-wantAcc) > 1e-9 {
		t.Errorf("MeanAccuracy %.9g includes failed tasks (want %.9g)", res.MeanAccuracy(), wantAcc)
	}
	wantEn := enSum / float64(ok)
	if math.Abs(res.MeanDeviceEnergy()-wantEn) > 1e-9 {
		t.Errorf("MeanDeviceEnergy %.9g includes failed tasks (want %.9g)", res.MeanDeviceEnergy(), wantEn)
	}
	// Pooled == deterministic merge of the per-user streams.
	var accN int64
	for _, us := range res.PerUser {
		accN += us.Accuracy.Count()
	}
	if accN != int64(ok) {
		t.Errorf("per-user accuracy count %d, want %d", accN, ok)
	}
}

// TestRunAllocsPerEventBounded guards the zero-alloc event loop: steady-
// state simulation must stay well under one heap allocation per event.
func TestRunAllocsPerEventBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting in -short")
	}
	dev, _ := hardware.ByName("rpi4")
	srv, _ := hardware.ByName("edge-gpu-t4")
	link := netmodel.NewStatic("wifi", netmodel.Mbps(50), 0.004)
	m := dnn.ResNet18()
	cand := m.ExitCandidates()
	tasks := workload.Spec{
		User: 0, Rate: 40, Arrivals: workload.Poisson,
		Difficulty: workload.UniformDifficulty, Seed: 4,
	}.Generate(60)
	cfg := Config{
		Servers: []ServerConfig{{Profile: srv, Link: link}},
		Users: []UserConfig{{
			Plan:   surgery.Plan{Model: m, Exits: cand[1:3], Theta: 0.2, Partition: 3},
			Device: dev, Server: 0, ComputeShare: 1, BandwidthShare: 1,
			Tasks: tasks,
		}},
		Discipline:  DedicatedShares,
		Parallelism: 1, // inline: no worker-pool allocations in the measurement
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < 1000 {
		t.Fatalf("scenario too small to amortize setup: %d events", res.Events)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := avg / float64(res.Events)
	if perEvent > 0.5 {
		t.Errorf("allocs/event = %.3f (%.0f allocs over %d events), want <= 0.5",
			perEvent, avg, res.Events)
	}
}
