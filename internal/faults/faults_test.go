package faults

import (
	"math"
	"testing"
)

func TestWindowValidation(t *testing.T) {
	bad := []Window{
		{Kind: ServerCrash, Server: -1, Start: 0, End: 1},
		{Kind: ServerCrash, Server: 0, Start: 2, End: 2},
		{Kind: ServerCrash, Server: 0, Start: 3, End: 1},
		{Kind: ServerCrash, Server: 0, Start: -1, End: 1},
		{Kind: ServerCrash, Server: 0, Start: math.NaN(), End: 1},
		{Kind: ServerCrash, Server: 0, Start: 0, End: math.Inf(1) * -1},
		{Kind: Brownout, Server: 0, Start: 0, End: 1, Factor: 0},
		{Kind: Brownout, Server: 0, Start: 0, End: 1, Factor: 1},
		{Kind: Brownout, Server: 0, Start: 0, End: 1, Factor: math.NaN()},
		{Kind: Kind(99), Server: 0, Start: 0, End: 1},
	}
	for i, w := range bad {
		if _, err := New(w); err == nil {
			t.Errorf("window %d (%+v) accepted", i, w)
		}
	}
	if _, err := New(Window{Kind: Brownout, Server: 0, Start: 0, End: 1, Factor: 0.5}); err != nil {
		t.Fatalf("valid brownout rejected: %v", err)
	}
}

func TestNilScheduleIsAlwaysUp(t *testing.T) {
	var s *Schedule
	if !s.ServerUp(0, 10) || !s.LinkUp(3, 0) || !s.Reachable(1, 5) {
		t.Fatal("nil schedule reported a fault")
	}
	if f := s.CapacityFactor(0, 1); f != 1 {
		t.Fatalf("nil schedule capacity factor %g", f)
	}
	if !math.IsInf(s.NextComputeChange(0, 0), 1) || !math.IsInf(s.NextLinkChange(0, 0), 1) {
		t.Fatal("nil schedule has boundaries")
	}
}

func TestScheduleQueries(t *testing.T) {
	s := MustNew(
		Window{Kind: ServerCrash, Server: 0, Start: 10, End: 20},
		Window{Kind: LinkOutage, Server: 1, Start: 15, End: 25},
		Window{Kind: Brownout, Server: 0, Start: 30, End: 40, Factor: 0.25},
	)
	// Half-open windows: down at Start, up again exactly at End.
	if s.ServerUp(0, 10) || !s.ServerUp(0, 20) || !s.ServerUp(0, 9.999) {
		t.Error("crash window boundaries wrong")
	}
	if s.LinkUp(1, 15) || !s.LinkUp(1, 25) {
		t.Error("outage window boundaries wrong")
	}
	// Faults are per-server.
	if !s.ServerUp(1, 15) || !s.LinkUp(0, 20) {
		t.Error("fault leaked onto the wrong server")
	}
	if f := s.CapacityFactor(0, 35); f != 0.25 {
		t.Errorf("brownout factor = %g, want 0.25", f)
	}
	if f := s.CapacityFactor(0, 15); f != 0 {
		t.Errorf("crashed factor = %g, want 0", f)
	}
	if got := s.NextComputeChange(0, 0); got != 10 {
		t.Errorf("next compute change = %g, want 10", got)
	}
	if got := s.NextComputeChange(0, 10); got != 20 {
		t.Errorf("next compute change after 10 = %g, want 20", got)
	}
	if got := s.NextLinkChange(1, 20); got != 25 {
		t.Errorf("next link change = %g, want 25", got)
	}
	if got := s.ServerRecovery(0, 12); got != 20 {
		t.Errorf("recovery = %g, want 20", got)
	}
	if got := s.LinkRestore(1, 16); got != 25 {
		t.Errorf("restore = %g, want 25", got)
	}
	if up := s.Health(2, 17); up[0] || up[1] {
		t.Errorf("health at 17 = %v, want both down", up)
	}
	if up := s.Health(2, 27); !up[0] || !up[1] {
		t.Errorf("health at 27 = %v, want both up", up)
	}
}

func TestMergeAndOverlap(t *testing.T) {
	a := MustNew(Window{Kind: ServerCrash, Server: 0, Start: 0, End: 10})
	b := MustNew(
		Window{Kind: Brownout, Server: 0, Start: 5, End: 15, Factor: 0.5},
		Window{Kind: Brownout, Server: 0, Start: 12, End: 20, Factor: 0.3},
	)
	m := Merge(a, nil, b)
	if len(m.Windows()) != 3 {
		t.Fatalf("merged %d windows, want 3", len(m.Windows()))
	}
	// Crash dominates brown-out while both are active.
	if f := m.CapacityFactor(0, 7); f != 0 {
		t.Errorf("factor during crash+brownout = %g, want 0", f)
	}
	// Overlapping brown-outs take the minimum factor.
	if f := m.CapacityFactor(0, 13); f != 0.3 {
		t.Errorf("factor during overlapping brownouts = %g, want 0.3", f)
	}
}
