package sim

import (
	"math"
	"reflect"
	"testing"

	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/netmodel"
)

func TestRecordTrace(t *testing.T) {
	fading, err := netmodel.NewFading("wlan", netmodel.FadingConfig{
		States: []float64{netmodel.Mbps(5), netmodel.Mbps(40)}, MeanDwell: 4,
		Horizon: 120, RTT: 0.004, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	links := []netmodel.Link{fading, netmodel.NewStatic("eth", netmodel.Mbps(25), 0.002)}
	sched := faults.MustNew(faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 20, End: 40})

	tr, err := RecordTrace(links, sched, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 6 {
		t.Fatalf("got %d samples, want 6", len(tr))
	}
	for i, s := range tr {
		if s.Time != float64(i)*10 {
			t.Fatalf("sample %d at t=%g", i, s.Time)
		}
		if len(s.Uplinks) != 2 || len(s.Health) != 2 {
			t.Fatalf("sample %d width %d/%d", i, len(s.Uplinks), len(s.Health))
		}
		for si, r := range s.Uplinks {
			if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
				t.Fatalf("sample %d server %d rate %g", i, si, r)
			}
		}
		// Static link records its constant rate exactly.
		if s.Uplinks[1] != netmodel.Mbps(25) {
			t.Fatalf("sample %d static rate %g", i, s.Uplinks[1])
		}
		wantDown := s.Time >= 20 && s.Time < 40
		if s.Health[0] != !wantDown || !s.Health[1] {
			t.Fatalf("sample %d health %v (crash window [20,40))", i, s.Health)
		}
	}

	// Recording is deterministic.
	again, err := RecordTrace(links, sched, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, again) {
		t.Fatal("re-recording produced a different trace")
	}

	// A nil schedule records an always-healthy cluster.
	clean, err := RecordTrace(links, nil, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range clean {
		if !s.Health[0] || !s.Health[1] {
			t.Fatalf("nil schedule reported unhealthy: %v", s.Health)
		}
	}

	if _, err := RecordTrace(nil, nil, 60, 10); err == nil {
		t.Fatal("empty server list accepted")
	}
}

// TestRecordTraceRejectsBadSpans: a horizon or period that is not a finite
// positive number, or a ratio of the two past what an int counts, is an
// error, never a panic in the sample slice's allocation.
func TestRecordTraceRejectsBadSpans(t *testing.T) {
	links := []netmodel.Link{netmodel.NewStatic("eth", netmodel.Mbps(25), 0.002)}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct{ horizon, period float64 }{
		{0, 10}, {60, 0}, {-60, 10}, {60, -10},
		{nan, 10}, {60, nan}, {inf, 10}, {60, inf}, {-inf, 10},
		{1e300, 1e-300}, {1e19, 1},
	} {
		if tr, err := RecordTrace(links, nil, c.horizon, c.period); err == nil {
			t.Errorf("horizon %g period %g: accepted (%d samples)", c.horizon, c.period, len(tr))
		}
	}
}
