package sim

import (
	"math"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// The closure-job API the station tests drive; the simulator itself submits
// typed task-lifecycle jobs (submitTask).

// Submit enqueues a job whose duration is dur(startTime); done fires at
// completion with the actual start and finish times.
func (s *Station) Submit(dur func(start float64) float64, done func(start, finish float64)) {
	s.q = append(s.q, stationJob{dur: dur, done: done})
	s.tryStart()
}

// Served returns the number of completed jobs.
func (s *Station) Served() int64 { return s.served }

// Submit adds a job with the given full-capacity service demand.
func (s *PSStation) Submit(serviceSec float64, done func(start, finish float64)) {
	s.admit(psJob{remaining: serviceSec, done: done})
}

// Served returns the number of completed jobs.
func (s *PSStation) Served() int64 { return s.served }

func TestEngineOrdering(t *testing.T) {
	var eng Engine
	var order []int
	eng.At(2, func() { order = append(order, 2) })
	eng.At(1, func() { order = append(order, 1) })
	eng.At(1, func() { order = append(order, 10) }) // same time: FIFO
	eng.After(3, func() { order = append(order, 3) })
	end := eng.Run()
	if end != 3 {
		t.Errorf("end time = %g", end)
	}
	want := []int{1, 10, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if eng.Executed() != 4 {
		t.Errorf("executed = %d", eng.Executed())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var eng Engine
	var hits []float64
	eng.At(1, func() {
		eng.After(0.5, func() { hits = append(hits, eng.Now()) })
	})
	eng.Run()
	if len(hits) != 1 || hits[0] != 1.5 {
		t.Errorf("hits = %v", hits)
	}
}

func TestEnginePanicsOnPast(t *testing.T) {
	var eng Engine
	eng.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into the past")
			}
		}()
		eng.At(1, func() {})
	})
	eng.Run()
}

func TestEngineRunUntil(t *testing.T) {
	var eng Engine
	fired := 0
	eng.At(1, func() { fired++ })
	eng.At(10, func() { fired++ })
	eng.RunUntil(5)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if len(eng.pq) != 1 {
		t.Errorf("pending = %d", len(eng.pq))
	}
	if eng.Now() != 5 {
		t.Errorf("now = %g", eng.Now())
	}
}

func TestStationFCFS(t *testing.T) {
	var eng Engine
	st := NewStation(&eng, "s")
	type span struct{ start, finish float64 }
	var spans []span
	eng.At(0, func() {
		st.Submit(func(float64) float64 { return 2 }, func(s, f float64) { spans = append(spans, span{s, f}) })
		st.Submit(func(float64) float64 { return 1 }, func(s, f float64) { spans = append(spans, span{s, f}) })
	})
	eng.At(1, func() {
		st.Submit(func(float64) float64 { return 1 }, func(s, f float64) { spans = append(spans, span{s, f}) })
	})
	eng.Run()
	want := []span{{0, 2}, {2, 3}, {3, 4}}
	if len(spans) != 3 {
		t.Fatalf("spans = %v", spans)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("spans = %v, want %v", spans, want)
		}
	}
	if st.Served() != 3 || math.Abs(st.BusyTime()-4) > 1e-12 {
		t.Errorf("served=%d busy=%g", st.Served(), st.BusyTime())
	}
}

func TestStationStartTimeDependentDuration(t *testing.T) {
	var eng Engine
	st := NewStation(&eng, "s")
	var finishes []float64
	eng.At(0, func() {
		// Duration = 1 if started before t=2, else 0.5.
		dur := func(start float64) float64 {
			if start < 2 {
				return 1
			}
			return 0.5
		}
		for i := 0; i < 3; i++ {
			st.Submit(dur, func(_, f float64) { finishes = append(finishes, f) })
		}
	})
	eng.Run()
	want := []float64{1, 2, 2.5}
	for i := range want {
		if math.Abs(finishes[i]-want[i]) > 1e-12 {
			t.Fatalf("finishes = %v, want %v", finishes, want)
		}
	}
}

func basicScenario(t *testing.T, rate float64, nUsers int, disc Discipline) Config {
	t.Helper()
	dev, err := hardware.ByName("rpi4")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hardware.ByName("edge-gpu-t4")
	if err != nil {
		t.Fatal(err)
	}
	link := netmodel.NewStatic("wifi", netmodel.Mbps(50), 0.004)
	m := dnn.ResNet18()
	cand := m.ExitCandidates()

	cfg := Config{
		Servers:     []ServerConfig{{Profile: srv, Link: link}},
		Discipline:  disc,
		Horizon:     0,
		KeepRecords: true,
	}
	for ui := 0; ui < nUsers; ui++ {
		plan := surgery.Plan{Model: m, Exits: cand[1:3], Theta: 0.2, Partition: 3}
		tasks := workload.Spec{
			User: ui, Rate: rate, Arrivals: workload.Poisson,
			Difficulty: workload.UniformDifficulty, Deadline: 0.25,
			Seed: int64(100 + ui),
		}.Generate(60)
		cfg.Users = append(cfg.Users, UserConfig{
			Plan: plan, Device: dev, Server: 0,
			ComputeShare: 1 / float64(nUsers), BandwidthShare: 1 / float64(nUsers),
			Tasks: tasks,
		})
	}
	return cfg
}

func TestRunCompletesAllTasks(t *testing.T) {
	cfg := basicScenario(t, 2, 3, DedicatedShares)
	var nTasks int
	for _, u := range cfg.Users {
		nTasks += len(u.Tasks)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != nTasks {
		t.Errorf("records = %d, want %d", len(res.Records), nTasks)
	}
	for _, rec := range res.Records {
		if rec.Latency <= 0 {
			t.Fatalf("non-positive latency: %+v", rec)
		}
		if rec.Finish < rec.Arrival {
			t.Fatalf("finish before arrival: %+v", rec)
		}
		if rec.Crossed && rec.TxSec <= 0 {
			t.Fatalf("crossed without transfer time: %+v", rec)
		}
		if !rec.Crossed && (rec.TxSec != 0 || rec.ServerSec != 0) {
			t.Fatalf("uncrossed task with offload time: %+v", rec)
		}
	}
}

// TestSimMatchesAnalyticExpectation is the cross-module ground-truth check:
// at negligible load (no queueing) the simulator's mean latency must match
// surgery.Evaluate's analytic expectation.
func TestSimMatchesAnalyticExpectation(t *testing.T) {
	dev, _ := hardware.ByName("rpi4")
	srv, _ := hardware.ByName("edge-gpu-t4")
	linkRate := netmodel.Mbps(20)
	link := netmodel.NewStatic("wifi", linkRate, 0.004)
	m := dnn.ResNet18()
	cand := m.ExitCandidates()
	plan := surgery.Plan{Model: m, Exits: []int{cand[1], cand[4]}, Theta: 0.15, Partition: 5}

	env := surgery.Env{
		Device: dev, Server: srv,
		ComputeShare: 0.5, UplinkBps: linkRate, BandwidthShare: 0.5,
		RTT: 0.004, Difficulty: workload.UniformDifficulty,
	}
	want, err := surgery.Evaluate(plan, env)
	if err != nil {
		t.Fatal(err)
	}

	tasks := workload.Spec{
		User: 0, Rate: 0.05, Arrivals: workload.Poisson,
		Difficulty: workload.UniformDifficulty, Seed: 7,
	}.Generate(40000) // ~2000 tasks; at 0.05/s queueing is negligible
	cfg := Config{
		Servers: []ServerConfig{{Profile: srv, Link: link}},
		Users: []UserConfig{{
			Plan: plan, Device: dev, Server: 0,
			ComputeShare: 0.5, BandwidthShare: 0.5, Tasks: tasks,
		}},
		Discipline:  DedicatedShares,
		KeepRecords: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Latencies().Mean()
	if math.Abs(got-want.Latency)/want.Latency > 0.03 {
		t.Errorf("simulated mean %.5g vs analytic %.5g (%.1f%% off)",
			got, want.Latency, 100*math.Abs(got-want.Latency)/want.Latency)
	}
	// Accuracy expectation must match too.
	if math.Abs(res.MeanAccuracy()-want.Accuracy) > 0.01 {
		t.Errorf("simulated accuracy %.4f vs analytic %.4f", res.MeanAccuracy(), want.Accuracy)
	}
	// Crossing probability.
	var crossed int
	for _, rec := range res.Records {
		if rec.Crossed {
			crossed++
		}
	}
	gotCross := float64(crossed) / float64(len(res.Records))
	if math.Abs(gotCross-want.CrossProb) > 0.03 {
		t.Errorf("crossing rate %.3f vs analytic %.3f", gotCross, want.CrossProb)
	}
}

func TestContentionRaisesLatency(t *testing.T) {
	low, err := Run(basicScenario(t, 0.5, 4, DedicatedShares))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(basicScenario(t, 20, 4, DedicatedShares))
	if err != nil {
		t.Fatal(err)
	}
	if high.Latencies().P95() <= low.Latencies().P95() {
		t.Errorf("P95 at high load %.4g not above low load %.4g",
			high.Latencies().P95(), low.Latencies().P95())
	}
	if high.DeadlineRate() > low.DeadlineRate() {
		t.Errorf("deadline rate improved under load: %.3f > %.3f",
			high.DeadlineRate(), low.DeadlineRate())
	}
}

func TestSharedFCFSDiscipline(t *testing.T) {
	res, err := Run(basicScenario(t, 5, 3, SharedFCFS))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	if res.ServerUtil[0] <= 0 || res.ServerUtil[0] > 1.000001 {
		t.Errorf("server utilization %g out of (0,1]", res.ServerUtil[0])
	}
}

func TestServerUtilizationScalesWithLoad(t *testing.T) {
	low, err := Run(basicScenario(t, 1, 2, DedicatedShares))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(basicScenario(t, 8, 2, DedicatedShares))
	if err != nil {
		t.Fatal(err)
	}
	if high.ServerUtil[0] <= low.ServerUtil[0] {
		t.Errorf("utilization did not grow with load: %g vs %g", high.ServerUtil[0], low.ServerUtil[0])
	}
}

func TestExitHistogramMatchesAnalytic(t *testing.T) {
	dev, _ := hardware.ByName("phone-soc")
	m := dnn.VGG16()
	cand := m.ExitCandidates()
	plan := surgery.Plan{Model: m, Exits: cand[:2], Theta: 0.1, Partition: m.NumUnits()}
	env := surgery.Env{Device: dev, Difficulty: workload.EasyBiased}
	want, err := surgery.Evaluate(plan, env)
	if err != nil {
		t.Fatal(err)
	}
	tasks := workload.Spec{
		User: 0, Rate: 5, Arrivals: workload.Poisson,
		Difficulty: workload.EasyBiased, Seed: 13,
	}.Generate(600)
	res, err := Run(Config{
		Users:       []UserConfig{{Plan: plan, Device: dev, Server: -1, Tasks: tasks}},
		KeepRecords: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	hist := res.PerUser[0].ExitHist
	cuts := plan.AllExitCuts()
	total := len(res.Records)
	for i, cut := range cuts {
		got := float64(hist[cut]) / float64(total)
		if math.Abs(got-want.ExitProbs[i]) > 0.04 {
			t.Errorf("exit@%d: simulated %.3f vs analytic %.3f", cut, got, want.ExitProbs[i])
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	dev, _ := hardware.ByName("rpi4")
	m := dnn.AlexNet()
	// Offload plan without a server.
	_, err := Run(Config{Users: []UserConfig{{
		Plan: surgery.FullOffload(m), Device: dev, Server: -1,
		Tasks: []workload.Task{{Arrival: 0}},
	}}})
	if err == nil {
		t.Error("expected error for offload without server")
	}
	// Unknown server index.
	_, err = Run(Config{Users: []UserConfig{{
		Plan: surgery.LocalOnly(m), Device: dev, Server: 3,
	}}})
	if err == nil {
		t.Error("expected error for unknown server")
	}
	// Zero shares under DedicatedShares.
	srv, _ := hardware.ByName("edge-cpu-16c")
	link := netmodel.NewStatic("eth", netmodel.Mbps(100), 0)
	_, err = Run(Config{
		Servers: []ServerConfig{{Profile: srv, Link: link}},
		Users: []UserConfig{{
			Plan: surgery.FullOffload(m), Device: dev, Server: 0,
			Tasks: []workload.Task{{Arrival: 0}},
		}},
		Discipline: DedicatedShares,
	})
	if err == nil {
		t.Error("expected error for zero shares")
	}
}

func TestFadingLinkIntegration(t *testing.T) {
	dev, _ := hardware.ByName("rpi4")
	srv, _ := hardware.ByName("edge-gpu-t4")
	link, err := netmodel.NewFading("wlan", netmodel.FadingConfig{
		States:    []float64{netmodel.Mbps(2), netmodel.Mbps(40)},
		MeanDwell: 1, Horizon: 2000, RTT: 0.005, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := dnn.AlexNet()
	tasks := workload.Spec{User: 0, Rate: 1, Arrivals: workload.Poisson, Seed: 14}.Generate(1000)
	res, err := Run(Config{
		Servers: []ServerConfig{{Profile: srv, Link: link}},
		Users: []UserConfig{{
			Plan: surgery.FullOffload(m), Device: dev, Server: 0,
			ComputeShare: 1, BandwidthShare: 1, Tasks: tasks,
		}},
		Discipline: DedicatedShares,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Latency must vary with channel state: the spread between fast and
	// slow transfers should be pronounced.
	lo, hi := res.Latencies().Quantile(0), res.Latencies().Quantile(1)
	if hi < 2*lo {
		t.Errorf("fading produced suspiciously uniform latencies: min %.4g max %.4g", lo, hi)
	}
}
