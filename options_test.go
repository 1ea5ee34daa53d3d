package edgesurgeon_test

import (
	"reflect"
	"slices"
	"testing"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/serve"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/surgery"
)

// TestOptionFields pins the exported fields of the planning, simulation and
// serving option structs, in declaration order, as each binary's TestFlagSet
// pins its flags: a knob is added or removed by editing its list here.
func TestOptionFields(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want []string
	}{
		{joint.Options{}, []string{"MaxIters", "Epsilon", "Surgery", "DisableSurgery", "DisableAllocation",
			"DisableReassignment", "DisableProbe", "ShardThreshold", "Frontiers", "SurgeryBudget", "Metrics"}},
		{surgery.Options{}, []string{"MinAccuracy", "NoExits", "FixedPartition"}},
		{sim.Config{}, []string{"Servers", "Users", "Discipline", "Horizon", "Faults", "Retry", "KeepRecords"}},
		{sim.RetryPolicy{}, []string{"TaskTimeout"}},
		{serve.Config{}, []string{"Scenario", "Planner", "Policy", "Frontier", "Store"}},
		{serve.Policy{}, []string{"RelChange", "MinInterval", "Budget", "Window", "NeverReplan", "ReplanDeadline",
			"QuarantineStrikes", "QuarantineProbation", "DeltaReplan"}},
	} {
		typ := reflect.TypeOf(tc.v)
		var got []string
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v has fields:\n  %q\nwant:\n  %q", typ, got, tc.want)
		}
	}
}
