package serve

import (
	"fmt"
	"strconv"
	"strings"

	"edgesurgeon/internal/joint"
)

// EncodePlan renders every decision a plan carries into a deterministic
// text form, so two runs — two replays, or a crashed-and-recovered run
// against an uninterrupted one — can be compared byte for byte. The chaos
// harness and the replay tests share this encoding.
func EncodePlan(p *joint.Plan) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "planner=%s objective=%s feasible=%t\n", p.PlannerName, g(p.Objective), p.Feasible)
	for ui := range p.Decisions {
		d := &p.Decisions[ui]
		fmt.Fprintf(&b, "  u%02d server=%d plan=%s shares=%s/%s latency=%s\n",
			ui, d.Server, d.Plan, g(d.ComputeShare), g(d.BandwidthShare), g(d.Latency()))
	}
	return b.String()
}

// Diff names the first of journal, metrics text and final plan (EncodePlan)
// where got differs from want, showing both; nil when all three are byte
// for byte the same. It is the one test of "a crashed, resumed or
// recovered run is the run that never stopped".
func Diff(want, got *Runtime) error {
	for _, a := range []struct {
		name string
		text func(*Runtime) string
	}{
		{"journal", func(rt *Runtime) string { return rt.Journal().String() }},
		{"metrics", func(rt *Runtime) string { return rt.Metrics().Text() }},
		{"final plan", func(rt *Runtime) string { return EncodePlan(rt.Current()) }},
	} {
		if w, g := a.text(want), a.text(got); w != g {
			return fmt.Errorf("serve: %s diverged\n--- want ---\n%s--- got ---\n%s", a.name, w, g)
		}
	}
	return nil
}
