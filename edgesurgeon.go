// Package edgesurgeon enables latency-sensitive DNN inference at the edge
// by jointly optimizing model surgery (early-exit selection, confidence
// thresholds and device/server partitioning) and resource allocation
// (per-user compute and bandwidth shares) across a heterogeneous edge
// cluster.
//
// It is a from-scratch reproduction of "Enabling Latency-Sensitive DNN
// Inference via Joint Optimization of Model Surgery and Resource Allocation
// in Heterogeneous Edge" (Huang, Dong, Shen, Wang, Guo, Fu — ICPP 2022);
// see DESIGN.md for the reconstruction methodology and EXPERIMENTS.md for
// the regenerated evaluation.
//
// # Quick start
//
//	sc := &edgesurgeon.Scenario{
//		Servers: []edgesurgeon.Server{{
//			Name:    "edge-gpu",
//			Profile: edgesurgeon.MustHardware("edge-gpu-t4"),
//			Link:    edgesurgeon.StaticLink("wifi", edgesurgeon.Mbps(40), 4*time.Millisecond),
//			RTT:     0.004,
//		}},
//		Users: []edgesurgeon.User{{
//			Name:   "camera-1",
//			Model:  edgesurgeon.MustModel("resnet18"),
//			Device: edgesurgeon.MustHardware("rpi4"),
//			Rate:   3, Deadline: 0.3,
//		}},
//	}
//	plan, err := edgesurgeon.NewPlanner().Plan(sc)
//	// plan.Decisions[0].Plan  -> exits/threshold/partition for camera-1
//	// plan.Decisions[0].ComputeShare, .BandwidthShare
//	res, err := edgesurgeon.Simulate(sc, plan, 60, edgesurgeon.DedicatedShares)
//
// The facade re-exports the library's stable surface; the implementation
// packages under internal/ follow the architecture in DESIGN.md:
// dnn (model zoo + cost arithmetic), hardware (device profiles), netmodel
// (links), workload (request streams), surgery (model surgery optimizer),
// alloc (share allocation), joint (the block-coordinate joint planner),
// baseline (comparison strategies), sim (discrete-event simulator),
// nn (a real trainable multi-exit network), experiments (the regenerated
// evaluation).
package edgesurgeon

import (
	"time"

	"edgesurgeon/internal/baseline"
	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// Core planning types.
type (
	// Scenario is a complete planning problem: users, servers, curves.
	Scenario = joint.Scenario
	// User describes one inference application at the edge.
	User = joint.User
	// Server describes one edge server and its uplink.
	Server = joint.Server
	// Plan is a complete deployment decision.
	Plan = joint.Plan
	// Decision is the per-user slice of a Plan.
	Decision = joint.Decision
	// Strategy is anything that can plan a Scenario.
	Strategy = joint.Strategy
	// PlannerOptions tunes the joint planner: set the Opt field of what
	// NewPlanner returns. ShardThreshold routes scenarios with at least
	// that many users through the hierarchical sharded planner (0 keeps
	// every scenario on the exact monolithic path).
	PlannerOptions = joint.Options
)

// Model and hardware types.
type (
	// Model is a DNN described as a chain of partitionable units.
	Model = dnn.Model
	// HardwareProfile is a calibrated execution model for one machine.
	HardwareProfile = hardware.Profile
	// Link exposes a network link's capacity over virtual time.
	Link = netmodel.Link
)

// Surgery types.
type (
	// SurgeryPlan is one exit-set/threshold/partition decision.
	SurgeryPlan = surgery.Plan
	// SurgeryEval is the analytic evaluation of a SurgeryPlan.
	SurgeryEval = surgery.Eval
	// SurgeryEnv is the environment a SurgeryPlan is evaluated against.
	SurgeryEnv = surgery.Env
	// ExitCurves calibrates exit confidence/accuracy behaviour.
	ExitCurves = surgery.ExitCurves
)

// Simulation types.
type (
	// SimResult carries per-task records and aggregates.
	SimResult = sim.Result
	// SimDiscipline selects how server capacity is divided.
	SimDiscipline = sim.Discipline
)

// Simulation disciplines.
const (
	// DedicatedShares gives each user a private lane at its allocated
	// share (the GPS idealization the planner assumes).
	DedicatedShares = sim.DedicatedShares
	// SharedFCFS serializes all users through one full-speed queue.
	SharedFCFS = sim.SharedFCFS
	// ProcessorSharing runs each server as an egalitarian
	// processor-sharing fluid (GPU time-slicer model).
	ProcessorSharing = sim.ProcessorSharing
)

// Difficulty distributions for User.Difficulty.
const (
	UniformDifficulty = workload.UniformDifficulty
	EasyBiased        = workload.EasyBiased
	HardBiased        = workload.HardBiased
	Bimodal           = workload.Bimodal
)

// Arrival processes for User.Arrivals.
const (
	Poisson  = workload.Poisson
	MMPP     = workload.MMPP
	Periodic = workload.Periodic
)

// NewPlanner returns the joint surgery + allocation + assignment planner
// (the paper's contribution) with default options.
func NewPlanner() *joint.Planner { return &joint.Planner{} }

// Baselines returns the comparison strategies used by the evaluation:
// local-only, edge-only, Neurosurgeon-style partitioning, BranchyNet-style
// on-device exits, and a seeded random planner.
func Baselines() []Strategy {
	return []Strategy{
		baseline.LocalOnly{},
		baseline.EdgeOnly{},
		baseline.Neurosurgeon{},
		baseline.BranchyLocal{},
		baseline.Random{Seed: 1},
	}
}

// Zoo returns fresh instances of every model in the zoo (AlexNet, VGG16,
// ResNet18/34, MobileNetV2, TinyYOLO).
func Zoo() []*Model { return dnn.Zoo() }

// Models lists the zoo model names.
func Models() []string { return dnn.ZooNames() }

// ModelByName returns the zoo model with the given name.
func ModelByName(name string) (*Model, error) { return dnn.ByName(name) }

// MustModel is ModelByName that panics on unknown names; for examples and
// tests.
func MustModel(name string) *Model {
	m, err := dnn.ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// Hardware returns the built-in machine catalog.
func Hardware() []*HardwareProfile { return hardware.Catalog() }

// HardwareByName returns the catalog profile with the given name.
func HardwareByName(name string) (*HardwareProfile, error) { return hardware.ByName(name) }

// MustHardware is HardwareByName that panics on unknown names.
func MustHardware(name string) *HardwareProfile {
	p, err := hardware.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Mbps converts megabits/second to the bits/second the link models use.
func Mbps(v float64) float64 { return netmodel.Mbps(v) }

// StaticLink builds a constant-rate link.
func StaticLink(name string, rateBps float64, rtt time.Duration) Link {
	return netmodel.NewStatic(name, rateBps, rtt.Seconds())
}

// FadingLink builds a seeded Markov-fading link alternating among the given
// state capacities with exponentially distributed dwell times.
func FadingLink(name string, statesBps []float64, meanDwell, horizon time.Duration, rtt time.Duration, seed int64) (Link, error) {
	return netmodel.NewFading(name, netmodel.FadingConfig{
		States:    statesBps,
		MeanDwell: meanDwell.Seconds(),
		Horizon:   horizon.Seconds(),
		RTT:       rtt.Seconds(),
		Seed:      seed,
	})
}

// OptimizeSurgery runs the single-user surgery optimizer: the
// minimum-expected-latency exit set, threshold and partition point for one
// model in one environment, subject to the options' accuracy floor.
func OptimizeSurgery(m *Model, env SurgeryEnv, opt surgery.Options) (SurgeryPlan, SurgeryEval, error) {
	return surgery.Optimize(m, env, opt)
}

// SurgeryOptions re-exports the surgery optimizer's options.
type SurgeryOptions = surgery.Options

// FreePartition lets OptimizeSurgery sweep all partition points.
const FreePartition = surgery.FreePartition

// DefaultCurves returns the calibrated exit confidence/accuracy curves used
// throughout the evaluation.
func DefaultCurves() ExitCurves { return surgery.DefaultCurves() }

// MeasuredPoint is one (depth, accuracy) profiling observation from a real
// multi-exit network, consumed by FitAccuracyCurve.
type MeasuredPoint = surgery.MeasuredPoint

// FitAccuracyCurve calibrates the planner's parametric accuracy family to
// profiling measurements of a real multi-exit network (e.g. from
// nn.MultiExit.Evaluate across thresholds). Returns the fitted curves and
// the RMSE of the fit; assign the curves to Scenario.Curves so the planner
// optimizes against the measured behaviour.
func FitAccuracyCurve(points []MeasuredPoint, finalAccuracy float64) (ExitCurves, float64, error) {
	return surgery.FitAccuracyCurve(points, finalAccuracy)
}

// Simulate replays a plan through the discrete-event simulator for the
// given horizon (seconds).
func Simulate(sc *Scenario, plan *Plan, horizon float64, d SimDiscipline) (*SimResult, error) {
	return joint.Simulate(sc, plan, horizon, d)
}

// PlanAndSimulate plans the scenario with the strategy and replays the
// result in the simulator.
func PlanAndSimulate(sc *Scenario, s Strategy, horizon float64, d SimDiscipline) (*Plan, *SimResult, error) {
	return joint.PlanAndSimulate(sc, s, horizon, d)
}

// NewDispatcher plans the scenario and returns the online dispatcher,
// which replans surgery + allocation when observed uplink rates drift.
func NewDispatcher(sc *Scenario, p *joint.Planner) (*joint.Dispatcher, error) {
	return joint.NewDispatcher(sc, p)
}

// Dispatcher is the online replanning layer.
type Dispatcher = joint.Dispatcher
