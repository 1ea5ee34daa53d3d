package faults

import (
	"testing"
)

func TestChaosValidation(t *testing.T) {
	bad := []ChaosEvent{
		{Kind: CrashAfterSample, Sample: -1},
		{Kind: SlowPlanner, Sample: 3, Until: 3, Factor: 0.5},
		{Kind: SlowPlanner, Sample: 3, Until: 5, Factor: 0},
		{Kind: SlowPlanner, Sample: 3, Until: 5, Factor: 1.5},
		{Kind: CorruptSample, Sample: 1, Corrupt: CorruptKind(9)},
		{Kind: ChaosKind(9), Sample: 1},
	}
	for i, e := range bad {
		if _, err := NewChaos(e); err == nil {
			t.Errorf("event %d (%+v) validated", i, e)
		}
	}
	if _, err := NewChaos(
		ChaosEvent{Kind: CrashAfterSample, Sample: 4},
		ChaosEvent{Kind: SlowPlanner, Sample: 0, Until: 3, Factor: 0.2},
		ChaosEvent{Kind: CorruptSample, Sample: 2, Corrupt: CorruptWidth},
	); err != nil {
		t.Fatal(err)
	}
}

func TestChaosAccessors(t *testing.T) {
	s, err := NewChaos(
		ChaosEvent{Kind: CrashAfterSample, Sample: 4},
		ChaosEvent{Kind: SlowPlanner, Sample: 2, Until: 5, Factor: 0.25},
		ChaosEvent{Kind: SlowPlanner, Sample: 4, Until: 6, Factor: 0.5},
		ChaosEvent{Kind: CorruptSample, Sample: 3, Corrupt: CorruptNaN},
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.CrashAfter(3) || !s.CrashAfter(4) {
		t.Error("CrashAfter wrong")
	}
	if got := s.PlannerFactor(1); got != 1 {
		t.Errorf("factor(1) = %g, want 1", got)
	}
	if got := s.PlannerFactor(4); got != 0.25 { // overlapping windows: minimum wins
		t.Errorf("factor(4) = %g, want 0.25", got)
	}
	if got := s.PlannerFactor(5); got != 0.5 {
		t.Errorf("factor(5) = %g, want 0.5", got)
	}
	if _, ok := s.Corruption(2); ok {
		t.Error("corruption at 2")
	}
	if k, ok := s.Corruption(3); !ok || k != CorruptNaN {
		t.Errorf("corruption(3) = %v/%v", k, ok)
	}
	var nilSched *ChaosSchedule
	if nilSched.CrashAfter(0) || nilSched.PlannerFactor(0) != 1 || !nilSched.Empty() {
		t.Error("nil schedule is not inert")
	}
}
