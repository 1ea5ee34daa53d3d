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

// TestTaskStageCostsFollowPath pins the simulator's per-task stage costs to
// surgery's exit walk: a task's device seconds are the walk's entry at its
// exit cut, bit for bit, and its server seconds that entry's full-capacity
// seconds stretched by the compute share, up to the event clock's rounding.
// One user on a dedicated lane over a static link, with two exits on the
// device and one on the server, across zoo models and device classes.
func TestTaskStageCostsFollowPath(t *testing.T) {
	srv, _ := hardware.ByName("edge-gpu-t4")
	const share = 0.3
	for _, mk := range []func() *dnn.Model{dnn.ResNet18, dnn.VGG16, dnn.MobileNetV2} {
		m := mk()
		cand := m.ExitCandidates()
		plan := surgery.Plan{Model: m, Exits: []int{cand[0], cand[1], cand[len(cand)-1]}, Theta: 0.1, Partition: cand[1]}
		for _, devName := range []string{"rpi4", "phone-soc", "jetson-nano"} {
			dev, _ := hardware.ByName(devName)
			t.Run(m.Name+"/"+devName, func(t *testing.T) {
				path := plan.Path(dev, srv, surgery.ExitCurves{})
				at := make(map[int]surgery.Exit, len(path))
				for _, e := range path {
					at[e.Cut] = e
				}
				tasks := workload.Spec{
					Rate: 0.05, Arrivals: workload.Poisson,
					Difficulty: workload.UniformDifficulty, Seed: 11,
				}.Generate(4000)
				res, err := Run(Config{
					Servers: []ServerConfig{{Profile: srv, Link: netmodel.NewStatic("wifi", netmodel.Mbps(20), 0.004)}},
					Users: []UserConfig{{
						Plan: plan, Device: dev, Server: 0,
						ComputeShare: share, BandwidthShare: 0.5, Tasks: tasks,
					}},
					Discipline:  DedicatedShares,
					KeepRecords: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				seen := make(map[int]int)
				for _, rec := range res.Records {
					e, ok := at[rec.ExitCut]
					if !ok {
						t.Fatalf("task exited at cut %d, not on the path", rec.ExitCut)
					}
					seen[rec.ExitCut]++
					if math.Float64bits(rec.DeviceSec) != math.Float64bits(e.DeviceSec) {
						t.Fatalf("cut %d: DeviceSec %v, path says %v", e.Cut, rec.DeviceSec, e.DeviceSec)
					}
					if rec.Crossed != e.Crossed || rec.Accuracy != e.Accuracy {
						t.Fatalf("cut %d: crossed %t accuracy %v, path says %t %v", e.Cut, rec.Crossed, rec.Accuracy, e.Crossed, e.Accuracy)
					}
					want := e.ServerSec / share
					if ulp := math.Nextafter(rec.Finish, math.Inf(1)) - rec.Finish; math.Abs(rec.ServerSec-want) > 2*ulp {
						t.Fatalf("cut %d: ServerSec %v, path says %v / %g = %v", e.Cut, rec.ServerSec, e.ServerSec, share, want)
					}
				}
				if len(seen) != len(path) {
					t.Fatalf("tasks left at %v only; the path has %d exits", seen, len(path))
				}
			})
		}
	}
}
