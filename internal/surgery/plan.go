package surgery

import (
	"fmt"
	"sort"
	"strings"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/workload"
)

// Env is the execution environment a surgery plan is evaluated against:
// the user's device, the assigned edge server with the user's compute
// share, and the uplink with the user's bandwidth share. Server may be nil
// for device-only evaluation (the partition must then equal NumUnits).
type Env struct {
	Device *hardware.Profile
	Server *hardware.Profile
	// ComputeShare is the fraction of the server this user holds, (0, 1].
	ComputeShare float64
	// UplinkBps is the total uplink capacity in bits/second at planning
	// time (the simulator replays the true time-varying link).
	UplinkBps float64
	// BandwidthShare is the fraction of the uplink this user holds, (0, 1].
	BandwidthShare float64
	// RTT is the device-server round trip in seconds.
	RTT float64
	// Difficulty is the analytic difficulty distribution of the user's
	// input stream.
	Difficulty workload.DifficultyKind
	// Curves calibrates exit confidence/accuracy; zero value means
	// DefaultCurves.
	Curves ExitCurves
	// Rate is the user's arrival rate in tasks/second. When positive, the
	// optimizer rejects plans whose expected device work would exceed
	// DeviceStabilityRho utilization of the (unshared) device — the
	// device-side analogue of the allocator's stability lower bounds.
	Rate float64
	// TxFactor scales the bytes crossing the partition boundary,
	// modeling activation compression/quantization before transfer
	// (e.g. 0.25 for 8-bit quantized activations). 0 means 1 (none).
	TxFactor float64
}

func (e Env) txFactor() float64 {
	if e.TxFactor <= 0 {
		return 1
	}
	return e.TxFactor
}

// DeviceStabilityRho is the maximum device utilization a rate-aware plan
// may provision for.
const DeviceStabilityRho = 0.9

func (c ExitCurves) orDefault() ExitCurves {
	if c == (ExitCurves{}) {
		return DefaultCurves()
	}
	return c
}

// Validate reports whether the environment is self-consistent.
func (e Env) Validate() error {
	if e.Device == nil {
		return fmt.Errorf("surgery: env needs a device")
	}
	if e.Server != nil {
		// Negated so that NaN, which fails every comparison, is refused.
		if !(e.ComputeShare > 0 && e.ComputeShare <= 1) {
			return fmt.Errorf("surgery: compute share %g out of (0,1]", e.ComputeShare)
		}
		if !(e.UplinkBps > 0) {
			return fmt.Errorf("surgery: non-positive uplink %g", e.UplinkBps)
		}
		if !(e.BandwidthShare > 0 && e.BandwidthShare <= 1) {
			return fmt.Errorf("surgery: bandwidth share %g out of (0,1]", e.BandwidthShare)
		}
	}
	return e.Curves.orDefault().Validate()
}

// Plan is one surgery decision for one user: the exit set, the confidence
// threshold, and the partition point.
type Plan struct {
	Model *dnn.Model
	// Exits are the cut indices carrying early-exit heads, strictly
	// ascending, each in [1, NumUnits). The backbone's own final exit at
	// NumUnits is implicit and always present.
	Exits []int
	// Theta is the confidence threshold in [0, 1): higher = stricter =
	// fewer early exits.
	Theta float64
	// Partition p splits the backbone: units 1..p run on the device,
	// units p+1..NumUnits on the server. p == NumUnits is fully local,
	// p == 0 ships the raw input.
	Partition int
}

// LocalOnly returns the trivial plan: no exits, everything on the device.
func LocalOnly(m *dnn.Model) Plan {
	return Plan{Model: m, Partition: m.NumUnits()}
}

// FullOffload returns the trivial plan: no exits, raw input to the server.
func FullOffload(m *dnn.Model) Plan {
	return Plan{Model: m, Partition: 0}
}

// Validate checks structural plan invariants.
func (p Plan) Validate() error {
	if p.Model == nil {
		return fmt.Errorf("surgery: plan has no model")
	}
	n := p.Model.NumUnits()
	if p.Partition < 0 || p.Partition > n {
		return fmt.Errorf("surgery: partition %d out of [0, %d]", p.Partition, n)
	}
	if p.Theta < 0 || p.Theta >= 1 {
		return fmt.Errorf("surgery: theta %g out of [0, 1)", p.Theta)
	}
	if !sort.IntsAreSorted(p.Exits) {
		return fmt.Errorf("surgery: exits %v not sorted", p.Exits)
	}
	for i, e := range p.Exits {
		if e < 1 || e >= n {
			return fmt.Errorf("surgery: exit cut %d out of [1, %d)", e, n)
		}
		if i > 0 && p.Exits[i-1] == e {
			return fmt.Errorf("surgery: duplicate exit cut %d", e)
		}
	}
	return nil
}

// String renders a compact plan description.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[cut@%d/%d", p.Model.Name, p.Partition, p.Model.NumUnits())
	if len(p.Exits) > 0 {
		fmt.Fprintf(&b, " exits=%v theta=%.2f", p.Exits, p.Theta)
	}
	b.WriteString("]")
	return b.String()
}

// Eval is the analytic evaluation of a plan in an environment. The latency
// decomposes exactly as
//
//	Latency = FixedSec + ServerSec/f + TxSec/b
//
// where f and b are the user's compute and bandwidth shares; the
// coefficients (evaluated at f = b = 1) are what the resource allocator
// consumes.
type Eval struct {
	// Latency is the expected end-to-end latency at the Env's shares.
	Latency float64
	// Accuracy is the expected prediction correctness.
	Accuracy float64
	// FixedSec is the share-independent latency: device compute plus the
	// crossing-probability-weighted RTT.
	FixedSec float64
	// ServerSec is the expected server compute per task at full capacity.
	ServerSec float64
	// TxSec is the expected uplink transfer time per task at full link
	// capacity.
	TxSec float64
	// CrossProb is the probability a task crosses the partition boundary.
	CrossProb float64
	// ExitProbs[i] is the probability of exiting at the plan's i-th exit
	// (Exits, then the final exit at NumUnits; Path's order).
	ExitProbs []float64
	// DeviceSec is the expected device compute per task (a component of
	// FixedSec, exposed for breakdowns and device-energy accounting).
	DeviceSec float64
}

// LatencyAt re-evaluates the expected latency under different shares
// without re-walking the plan.
func (ev Eval) LatencyAt(computeShare, bandwidthShare float64) float64 {
	l := ev.FixedSec
	if ev.ServerSec > 0 {
		l += ev.ServerSec / computeShare
	}
	if ev.TxSec > 0 {
		l += ev.TxSec / bandwidthShare
	}
	return l
}

// Evaluate computes the exact expected latency/accuracy decomposition of a
// plan in an environment.
func Evaluate(p Plan, env Env) (Eval, error) {
	if err := p.Validate(); err != nil {
		return Eval{}, err
	}
	if err := env.Validate(); err != nil {
		return Eval{}, err
	}
	if env.Server == nil && p.Partition != p.Model.NumUnits() {
		return Eval{}, fmt.Errorf("surgery: plan %v offloads but env has no server", p)
	}
	return evaluateInto(p, env), nil
}

// Exit is one step of a plan's exit walk: what a task that leaves the
// network at this exit has spent by then.
type Exit struct {
	// Cut is the backbone cut the exit sits after (NumUnits for the
	// backbone's own final exit).
	Cut int
	// Tau is the exit's confidence power: a task of difficulty <= Tau that
	// passed every earlier exit leaves here. It is 1 at the final exit.
	Tau float64
	// Accuracy is the expected correctness of a prediction made here.
	Accuracy float64
	// DeviceSec is the device compute up to here, exit heads on the device
	// included.
	DeviceSec float64
	// ServerSec is the server compute up to here at full capacity, exit
	// heads on the server included.
	ServerSec float64
	// Crossed reports whether the task crossed the partition on its way.
	Crossed bool
}

// Path walks a validated plan exit by exit on dev and srv and returns one
// Exit per exit, in order: Exits, then the final exit at NumUnits. srv may be
// nil for a plan that keeps every unit on the device; zero curves mean
// DefaultCurves. It is the one copy of the per-exit cost model: Evaluate
// takes its expectation over the input difficulty, and the simulator charges
// each task the exit it leaves at.
func (p Plan) Path(dev, srv *hardware.Profile, curves ExitCurves) []Exit {
	m := p.Model
	n := m.NumUnits()
	curves = curves.orDefault()
	out := make([]Exit, len(p.Exits)+1)
	prevCut := 0
	var cumDev, cumSrv float64
	for i := range out {
		cut := n
		if i < len(p.Exits) {
			cut = p.Exits[i]
		}
		// Backbone segment (prevCut, cut].
		if devEnd := min(cut, p.Partition); devEnd > prevCut {
			cumDev += dev.RangeTime(m, prevCut, devEnd)
		}
		if srvStart := max(prevCut, p.Partition); cut > srvStart {
			cumSrv += srv.RangeTime(m, srvStart, cut)
		}
		// Exit head compute at this cut (the final exit's head is the
		// backbone's own classifier, already counted).
		x := depthFrac(m, cut)
		tau := 1.0
		if cut < n {
			hf, _ := headCost(m, cut)
			if cut <= p.Partition {
				cumDev += dev.FLOPsTime(hf)
			} else {
				cumSrv += srv.FLOPsTime(hf)
			}
			tau = curves.Confidence(x, p.Theta)
		}
		out[i] = Exit{Cut: cut, Tau: tau, Accuracy: curves.Accuracy(x),
			DeviceSec: cumDev, ServerSec: cumSrv, Crossed: cut > p.Partition}
		prevCut = cut
	}
	return out
}

// evaluateInto is Evaluate's core and the reference the optimizer's kernel is
// checked against: the expectation of an arbitrary, already validated plan's
// Path over the input difficulty, where the kernel reads arrays it built once.
func evaluateInto(p Plan, env Env) Eval {
	path := p.Path(env.Device, env.Server, env.Curves)
	ev := Eval{ExitProbs: make([]float64, len(path))}
	prevTau := 0.0
	for i, e := range path {
		pe := workload.DifficultyCDF(env.Difficulty, e.Tau) - workload.DifficultyCDF(env.Difficulty, prevTau)
		if pe < 0 {
			pe = 0
		}
		ev.ExitProbs[i] = pe
		ev.DeviceSec += pe * e.DeviceSec
		ev.ServerSec += pe * e.ServerSec
		if e.Crossed {
			tx := float64(p.Model.CutBytes(p.Partition)) * 8 * env.txFactor() / env.UplinkBps
			ev.TxSec += pe * tx
			ev.FixedSec += pe * env.RTT
			ev.CrossProb += pe
		}
		ev.Accuracy += pe * e.Accuracy
		prevTau = e.Tau
	}
	ev.FixedSec += ev.DeviceSec
	ev.Latency = ev.LatencyAt(envShare(env.ComputeShare), envShare(env.BandwidthShare))
	return ev
}

func envShare(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return s
}
