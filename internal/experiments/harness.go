// Package experiments regenerates every table and figure of the
// reconstructed evaluation (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for measured-vs-expected outcomes). Each experiment is a
// pure function returning a Report whose tables carry exactly the rows the
// corresponding paper-class artifact reports; cmd/experiments renders them
// and bench_test.go wraps each in a benchmark target.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"edgesurgeon/internal/baseline"
	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/stats"
	"edgesurgeon/internal/workload"
)

// Report is one experiment's regenerated artifact.
type Report struct {
	// ID is the experiment identifier (E1..E27).
	ID string
	// Artifact names the paper-class table/figure this regenerates.
	Artifact string
	// Title describes the experiment.
	Title string
	// Tables carry the regenerated rows/series.
	Tables []*stats.Table
	// Notes records the measured shape (who wins, crossovers, factors).
	Notes []string
	// Metrics carries machine-readable scalars (throughput, speedups) for
	// perf-trajectory artifacts such as BENCH_sim.json.
	Metrics map[string]float64
}

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Report) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// String renders the full report as text.
func (r *Report) String() string {
	s := fmt.Sprintf("### %s (%s): %s\n", r.ID, r.Artifact, r.Title)
	for _, t := range r.Tables {
		s += t.String() + "\n"
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// Runner is an experiment entry point.
type Runner func() (*Report, error)

// Registry maps experiment IDs to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"E1":  E1ModelZoo,
		"E2":  E2HardwareProfile,
		"E3":  E3BandwidthSweep,
		"E4":  E4UserScaling,
		"E5":  E5DeadlineVsRate,
		"E6":  E6AccuracyLatency,
		"E7":  E7Ablation,
		"E8":  E8Heterogeneity,
		"E9":  E9PlannerScalability,
		"E10": E10Convergence,
		"E11": E11OptimalityGap,
		"E12": E12RealMultiExit,
		"E13": E13OnlineAdaptation,
		"E14": E14DeviceEnergy,
		"E15": E15Compression,
		"E16": E16ProbeAblation,
		"E17": E17PriorityWeights,
		"E18": E18DisciplineSensitivity,
		"E19": E19SaturationThroughput,
		"E20": E20AvailabilityUnderFailures,
		"E21": E21ScaleThroughput,
		"E22": E22ControlPlanePolicies,
		"E23": E23PlannerScale,
		"E24": E24FrontierStudy,
		"E25": E25ChaosRecovery,
		"E26": E26ReplanLatency,
		"E27": E27DataPlane,
	}
}

// QuickVariants maps experiment IDs to CI-sized runners (the `experiments
// -quick` flag): same table shape and metric keys as the full experiment,
// shrunken inputs. Experiments without an entry run full-size either way.
func QuickVariants() map[string]Runner {
	return map[string]Runner{
		"E23": E23QuickPlannerScale,
		"E24": E24QuickFrontierStudy,
		"E26": E26QuickReplanLatency,
		"E27": E27QuickDataPlane,
	}
}

// IDs returns the experiment identifiers in run order.
func IDs() []string {
	ids := make([]string, 0, len(Registry()))
	for id := range Registry() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		var a, b int
		fmt.Sscanf(ids[i], "E%d", &a)
		fmt.Sscanf(ids[j], "E%d", &b)
		return a < b
	})
	return ids
}

// forEachArm runs f(0..n-1) on a worker pool bounded by GOMAXPROCS and
// returns the first error. Arms of one figure are independent (each builds
// its own scenario and strategy), so sweeps parallelize freely; each arm's
// result must land in its own pre-allocated slot.
func forEachArm(n int, f func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// --- shared scenario builders -------------------------------------------

func mustDevice(name string) *hardware.Profile {
	p, err := hardware.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// mixedScenario is the workhorse multi-user scenario: nUsers cycling over
// {Pi, phone, Jetson} devices and {ResNet18, AlexNet, MobileNetV2, VGG16}
// models, two heterogeneous servers (GPU + CPU) with distinct uplinks.
func mixedScenario(nUsers int, ratePerUser, deadline, uplinkMbps float64) *joint.Scenario {
	devices := []*hardware.Profile{mustDevice("rpi4"), mustDevice("phone-soc"), mustDevice("jetson-nano")}
	models := []func() *dnn.Model{dnn.ResNet18, dnn.AlexNet, dnn.MobileNetV2, dnn.VGG16}
	sc := &joint.Scenario{
		Servers: []joint.Server{
			{Name: "edge-gpu", Profile: mustDevice("edge-gpu-t4"),
				Link: netmodel.NewStatic("wifi-a", netmodel.Mbps(uplinkMbps), 0.004), RTT: 0.004},
			{Name: "edge-cpu", Profile: mustDevice("edge-cpu-16c"),
				Link: netmodel.NewStatic("wifi-b", netmodel.Mbps(uplinkMbps*0.7), 0.006), RTT: 0.006},
		},
	}
	for i := 0; i < nUsers; i++ {
		sc.Users = append(sc.Users, joint.User{
			Name:       fmt.Sprintf("user%02d", i),
			Model:      models[i%len(models)](),
			Device:     devices[i%len(devices)],
			Rate:       ratePerUser,
			Deadline:   deadline,
			Difficulty: workload.EasyBiased,
			Arrivals:   workload.Poisson,
			Seed:       int64(9000 + i),
		})
	}
	return sc
}

// strategiesUnderTest returns the standard comparison set: the joint
// planner followed by the four published-baseline stand-ins.
func strategiesUnderTest() []joint.Strategy {
	return []joint.Strategy{
		&joint.Planner{},
		baseline.LocalOnly{},
		baseline.EdgeOnly{},
		baseline.Neurosurgeon{},
		baseline.BranchyLocal{},
	}
}
