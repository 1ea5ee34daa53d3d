package sim

import (
	"math"
	"testing"
)

func TestPSTwoEqualJobs(t *testing.T) {
	var eng Engine
	ps := NewPSStation(&eng, "ps")
	var finishes []float64
	eng.At(0, func() {
		ps.Submit(1, func(_, f float64) { finishes = append(finishes, f) })
		ps.Submit(1, func(_, f float64) { finishes = append(finishes, f) })
	})
	eng.Run()
	// Two unit jobs sharing the server both finish at t=2.
	if len(finishes) != 2 {
		t.Fatalf("finishes = %v", finishes)
	}
	for _, f := range finishes {
		if math.Abs(f-2) > 1e-9 {
			t.Errorf("finish = %g, want 2", f)
		}
	}
	if len(ps.jobs) != 0 {
		t.Errorf("inService=%d", len(ps.jobs))
	}
}

func TestPSStaggeredArrivals(t *testing.T) {
	var eng Engine
	ps := NewPSStation(&eng, "ps")
	finish := map[string]float64{}
	eng.At(0, func() {
		ps.Submit(2, func(_, f float64) { finish["a"] = f })
	})
	eng.At(1, func() {
		ps.Submit(0.5, func(_, f float64) { finish["b"] = f })
	})
	eng.Run()
	// Job a runs alone over [0,1) completing 1s of its 2s. From t=1 both
	// share: b needs 0.5 => 1.0 wall => b done at t=2 (a has 0.5 left).
	// a then runs alone: done at t=2.5.
	if math.Abs(finish["b"]-2) > 1e-9 {
		t.Errorf("b finish = %g, want 2", finish["b"])
	}
	if math.Abs(finish["a"]-2.5) > 1e-9 {
		t.Errorf("a finish = %g, want 2.5", finish["a"])
	}
}

func TestPSZeroServiceJob(t *testing.T) {
	var eng Engine
	ps := NewPSStation(&eng, "ps")
	fired := false
	eng.At(0, func() {
		ps.Submit(0, func(_, f float64) {
			fired = true
			if f != 0 {
				t.Errorf("zero job finished at %g", f)
			}
		})
	})
	eng.Run()
	if !fired {
		t.Fatal("zero-service job never completed")
	}
}

func TestPSManyJobsConservation(t *testing.T) {
	var eng Engine
	ps := NewPSStation(&eng, "ps")
	const n = 50
	var total float64
	var last float64
	eng.At(0, func() {
		for i := 0; i < n; i++ {
			svc := 0.1 + float64(i%7)*0.05
			total += svc
			ps.Submit(svc, func(_, f float64) {
				if f > last {
					last = f
				}
			})
		}
	})
	eng.Run()
	// Work conservation: the busy period ends exactly when the summed
	// service is exhausted.
	if math.Abs(last-total) > 1e-6 {
		t.Errorf("last completion %g, want total service %g", last, total)
	}
	if math.Abs(ps.BusyTime()-total) > 1e-6 {
		t.Errorf("busy time %g, want %g", ps.BusyTime(), total)
	}
}

func TestPSSlowdownMonotoneInLoad(t *testing.T) {
	// The same tagged job finishes later when more background jobs share
	// the station.
	run := func(background int) float64 {
		var eng Engine
		ps := NewPSStation(&eng, "ps")
		var tagged float64
		eng.At(0, func() {
			for i := 0; i < background; i++ {
				ps.Submit(5, nil)
			}
			ps.Submit(1, func(_, f float64) { tagged = f })
		})
		eng.Run()
		return tagged
	}
	prev := -1.0
	for _, bg := range []int{0, 1, 2, 4, 8} {
		f := run(bg)
		if f <= prev {
			t.Fatalf("finish %g at bg=%d not greater than %g", f, bg, prev)
		}
		prev = f
	}
}

func TestProcessorSharingDiscipline(t *testing.T) {
	res, err := Run(basicScenario(t, 5, 3, ProcessorSharing))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	for _, rec := range res.Records {
		if rec.ServerWait < 0 {
			t.Fatalf("negative server wait: %+v", rec)
		}
	}
	if res.ServerUtil[0] <= 0 || res.ServerUtil[0] > 1.000001 {
		t.Errorf("utilization %g out of (0,1]", res.ServerUtil[0])
	}
}

func TestDisciplinesAgreeAtLightLoad(t *testing.T) {
	// With a single light user, all three disciplines must produce nearly
	// identical latencies (no contention to arbitrate).
	var means []float64
	for _, d := range []Discipline{DedicatedShares, SharedFCFS, ProcessorSharing} {
		cfg := basicScenario(t, 0.2, 1, d)
		cfg.Users[0].ComputeShare = 1
		cfg.Users[0].BandwidthShare = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		means = append(means, res.Latencies().Mean())
	}
	for i := 1; i < len(means); i++ {
		if math.Abs(means[i]-means[0])/means[0] > 0.02 {
			t.Errorf("discipline %d mean %.5g deviates from %.5g", i, means[i], means[0])
		}
	}
}
