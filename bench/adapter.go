package main

// adapter.go is the only file of the benchmark that imports
// edgesurgeon/internal/...: every entry point the benchmark pins is named
// here, so a refactor of the program knows exactly which symbols the
// yardstick depends on (bench/README.md lists them). The rest of the
// benchmark sees the program through the aliases, handles and closures
// below and times them from outside; nothing here patches the program.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"edgesurgeon/internal/agent"
	"edgesurgeon/internal/alloc"
	"edgesurgeon/internal/client"
	"edgesurgeon/internal/cluster"
	"edgesurgeon/internal/config"
	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/serve"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/telemetry"
	"edgesurgeon/internal/wire"
	"edgesurgeon/internal/workload"
)

// The program's data types the benchmark handles directly.
type (
	scenarioDoc = config.Scenario
	serverDoc   = config.Server
	fadingDoc   = config.Fading
	userDoc     = config.User

	scenario = joint.Scenario
	plan     = joint.Plan
	response = wire.Response
	sample   = telemetry.Sample
)

const statusOK = wire.StatusOK

// parseScenario is config.Parse: scenario JSON in, planning problem out.
func parseScenario(data []byte) (*scenario, error) {
	sc, _, err := config.Parse(data)
	return sc, err
}

// internScenario makes users and servers of one name share one model or
// profile instance. config.Parse hands every user fresh instances, and the
// planner's frontier tables and surgery cache key on pointer identity, so an
// un-interned population degenerates to one table per user; the program's
// own experiments build their populations with shared instances, and the
// control workloads do the same after parsing.
func internScenario(sc *scenario) {
	models := map[string]*dnn.Model{}
	profiles := map[string]*hardware.Profile{}
	profile := func(p *hardware.Profile) *hardware.Profile {
		if q, ok := profiles[p.Name]; ok {
			return q
		}
		profiles[p.Name] = p
		return p
	}
	for i := range sc.Users {
		u := &sc.Users[i]
		if m, ok := models[u.Model.Name]; ok {
			u.Model = m
		} else {
			models[u.Model.Name] = u.Model
		}
		u.Device = profile(u.Device)
	}
	for i := range sc.Servers {
		sc.Servers[i].Profile = profile(sc.Servers[i].Profile)
	}
}

// withUplink returns a copy of sc whose server s has a static uplink at
// factor times its planning-time mean — the drifted scenario a delta replan
// is measured against.
func withUplink(sc *scenario, s int, factor float64) *scenario {
	out := *sc
	out.Servers = append([]joint.Server(nil), sc.Servers...)
	rate := meanUplinks(sc)[s] * factor
	out.Servers[s].Link = netmodel.NewStatic(sc.Servers[s].Name+"-drift", rate, sc.Servers[s].RTT)
	return &out
}

// meanUplinks returns every server's planning-time mean uplink in bits/s.
func meanUplinks(sc *scenario) []float64 {
	horizon := sc.PlanningHorizon
	if horizon <= 0 {
		horizon = 60
	}
	rates := make([]float64, len(sc.Servers))
	for s := range sc.Servers {
		rates[s] = netmodel.MeanRate(sc.Servers[s].Link, horizon)
	}
	return rates
}

// planProblems checks the invariants every published plan must hold: one
// decision per user, shares in [0, 1], per-server share sums at most 1.
func planProblems(sc *scenario, p *plan) []string {
	var problems []string
	if len(p.Decisions) != len(sc.Users) {
		return []string{fmt.Sprintf("plan has %d decisions for %d users", len(p.Decisions), len(sc.Users))}
	}
	const slack = 1e-6
	compute := make([]float64, len(sc.Servers))
	bandwidth := make([]float64, len(sc.Servers))
	for i := range p.Decisions {
		d := &p.Decisions[i]
		if d.ComputeShare < 0 || d.ComputeShare > 1+slack || d.BandwidthShare < 0 || d.BandwidthShare > 1+slack {
			problems = append(problems, fmt.Sprintf("user %d shares %g/%g outside [0, 1]", i, d.ComputeShare, d.BandwidthShare))
		}
		if d.Server >= len(sc.Servers) {
			problems = append(problems, fmt.Sprintf("user %d assigned to unknown server %d", i, d.Server))
			continue
		}
		if d.Server >= 0 {
			compute[d.Server] += d.ComputeShare
			bandwidth[d.Server] += d.BandwidthShare
		}
	}
	for s := range sc.Servers {
		if compute[s] > 1+slack || bandwidth[s] > 1+slack {
			problems = append(problems, fmt.Sprintf("server %d oversubscribed: compute %g, bandwidth %g", s, compute[s], bandwidth[s]))
		}
	}
	if len(problems) > 5 {
		problems = append(problems[:5], fmt.Sprintf("... and %d more", len(problems)-5))
	}
	return problems
}

// planQuality reduces a plan to the two quality numbers the benchmark
// guards: the objective per user in model milliseconds, and the share of
// deadline-bearing users whose predicted latency meets their deadline.
func planQuality(sc *scenario, p *plan) (objectiveMs, deadlineFrac float64) {
	met, bearing := 0, 0
	for i := range p.Decisions {
		if dl := sc.Users[i].Deadline; dl > 0 {
			bearing++
			if p.Decisions[i].Latency() <= dl {
				met++
			}
		}
	}
	deadlineFrac = 1
	if bearing > 0 {
		deadlineFrac = float64(met) / float64(bearing)
	}
	return p.Objective / float64(len(p.Decisions)) * 1e3, deadlineFrac
}

// --- data plane ---------------------------------------------------------

// planeConfig describes one loopback cluster (cluster.Start).
type planeConfig struct {
	ScenarioJSON []byte
	AgentBin     string
	Dir          string // scratch directory, created here, removed on Close
	Replan       bool   // serve.Hysteresis() + DeltaReplan; false = NeverReplan
	TimeScale    float64
	// TelemetryPeriod is the agents' sample period in model seconds.
	TelemetryPeriod float64
	Seed            int64
}

// plane is a running loopback cluster: the in-process dispatcher and
// control plane plus one edgeagent child process per server.
type plane struct {
	c   *cluster.Cluster
	dir string
}

func startPlane(cfg planeConfig) (*plane, error) {
	policy := serve.NeverReplan()
	if cfg.Replan {
		policy = serve.Hysteresis()
		policy.DeltaReplan = true
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	c, err := cluster.Start(cluster.Config{
		ScenarioJSON:    cfg.ScenarioJSON,
		AgentBin:        cfg.AgentBin,
		Policy:          policy,
		TimeScale:       cfg.TimeScale,
		TelemetryPeriod: cfg.TelemetryPeriod,
		Seed:            cfg.Seed,
		Dir:             cfg.Dir,
	})
	if err != nil {
		_ = os.RemoveAll(cfg.Dir)
		return nil, err
	}
	return &plane{c: c, dir: cfg.Dir}, nil
}

func (p *plane) addr() string { return p.c.Addr() }

// currentPlan is the plan the control plane publishes right now.
func (p *plane) currentPlan() *plan { return p.c.Runtime.Current() }

// counter reads one series of the cluster's metric registry.
func (p *plane) counter(name string) int64 {
	return p.c.Runtime.Metrics().Counter(name).Value()
}

// close kills the agent children, stops the dispatcher and removes the
// scratch directory.
func (p *plane) close() {
	p.c.Close()
	_ = os.RemoveAll(p.dir)
}

// buildAgentBin is cluster.BuildAgentBin: compile cmd/edgeagent into dir.
func buildAgentBin(dir string) (string, error) { return cluster.BuildAgentBin(dir) }

// dialClient is client.Dial with the benchmark's window and call timeout.
func dialClient(addr, id string, window int, callTimeout time.Duration) (*client.Client, error) {
	return client.Dial(addr, client.Config{ID: id, Window: window, CallTimeout: callTimeout})
}

// --- control plane ------------------------------------------------------

// plannerOptions is the planner configuration of the control workloads:
// the hierarchical sharded route from 256 users up.
func plannerOptions() joint.Options { return joint.Options{ShardThreshold: 256} }

// controlConfig is the serve.Config the control_replay workload runs and
// recovers under: sharded planner, frontier tables, hysteresis with delta
// replans, WAL and snapshots in dir.
func controlConfig(sc *scenario, dir string) (serve.Config, error) {
	store, err := serve.OpenStore(dir)
	if err != nil {
		return serve.Config{}, err
	}
	policy := serve.Hysteresis()
	policy.DeltaReplan = true
	return serve.Config{
		Scenario: sc,
		Planner:  &joint.Planner{Opt: plannerOptions()},
		Policy:   policy,
		Frontier: true,
		Store:    store,
	}, nil
}

// replanCounts is the control plane's decision ledger, read from its
// serve.* counters.
type replanCounts struct {
	Full, Delta, Cheap, Deferred, NoChange int64
}

// controlRuntime is a serve.Runtime with its store.
type controlRuntime struct{ rt *serve.Runtime }

// newControlRuntime is serve.New on a fresh store in dir.
func newControlRuntime(sc *scenario, dir string) (*controlRuntime, error) {
	cfg, err := controlConfig(sc, dir)
	if err != nil {
		return nil, err
	}
	rt, err := serve.New(cfg)
	if err != nil {
		_ = cfg.Store.Close()
		return nil, err
	}
	return &controlRuntime{rt: rt}, nil
}

// recoverControlRuntime is serve.Recover from the store in dir.
func recoverControlRuntime(sc *scenario, dir string) (*controlRuntime, error) {
	cfg, err := controlConfig(sc, dir)
	if err != nil {
		return nil, err
	}
	rt, err := serve.Recover(cfg)
	if err != nil {
		_ = cfg.Store.Close()
		return nil, err
	}
	return &controlRuntime{rt: rt}, nil
}

func (r *controlRuntime) ingest(s sample) (*plan, error) { return r.rt.Ingest(s) }
func (r *controlRuntime) current() *plan                 { return r.rt.Current() }
func (r *controlRuntime) close() error                   { return r.rt.Close() }

func (r *controlRuntime) counts() replanCounts {
	reg := r.rt.Metrics()
	return replanCounts{
		Full:     reg.Counter("serve.replans.full").Value(),
		Delta:    reg.Counter("serve.replans.delta").Value(),
		Cheap:    reg.Counter("serve.replans.cheap").Value(),
		Deferred: reg.Counter("serve.replans.deferred").Value(),
		NoChange: reg.Counter("serve.no_change").Value(),
	}
}

// encodePlan is serve.EncodePlan, the byte-comparable plan rendering.
func encodePlan(p *plan) string { return serve.EncodePlan(p) }

// storeSizes returns the snapshot and WAL sizes of the store in dir.
func storeSizes(dir string) (snapshotBytes, walBytes int64) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		switch {
		case strings.HasSuffix(e.Name(), ".jsonl"):
			walBytes += info.Size()
		case strings.HasSuffix(e.Name(), ".json"):
			snapshotBytes += info.Size()
		}
	}
	return snapshotBytes, walBytes
}

// storeOps opens the store in dir (which must hold a snapshot) and returns
// the two persistence operations the serve layer pays per sample and per
// full replan: Store.AppendEntry and Store.WriteSnapshot.
func storeOps(dir string, uplinks []float64) (appendEntry, writeSnapshot func() error, closeFn func(), err error) {
	store, err := serve.OpenStore(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	snap, err := store.LoadSnapshot()
	if err == nil && snap == nil {
		err = errors.New("store holds no snapshot")
	}
	if err != nil {
		_ = store.Close()
		return nil, nil, nil, err
	}
	seq := snap.Seq
	appendEntry = func() error {
		seq++
		return store.AppendEntry(serve.WALEntry{Seq: seq, Sample: &sample{Time: float64(seq), Uplinks: uplinks, Source: "bench"}})
	}
	writeSnapshot = func() error { return store.WriteSnapshot(snap) }
	return appendEntry, writeSnapshot, func() { _ = store.Close() }, nil
}

// --- planner ------------------------------------------------------------

// coldPlan is the plan_cold operation: joint.BuildFrontierSet then
// joint.Planner.Plan on fresh tables, nothing carried over. The planner it
// returns holds the tables it built.
func coldPlan(sc *scenario) (p *plan, planner *joint.Planner, buildDur, planDur time.Duration, err error) {
	opt := plannerOptions()
	t0 := time.Now()
	set, err := joint.BuildFrontierSet(sc, opt, surgery.BuildOptions{Surgery: opt.Surgery})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	buildDur = time.Since(t0)
	opt.Frontiers = set
	planner = &joint.Planner{Opt: opt}
	t1 := time.Now()
	p, err = planner.Plan(sc)
	return p, planner, buildDur, time.Since(t1), err
}

// plannerOps prepares the warm planner operations on sc, given the plan and
// planner of a coldPlan: a delta replan with server 0 drifted to 0.7x (one
// dirty shard, tables extended first, as the control plane does) and a cheap
// refresh through joint.Dispatcher.Observe at rates within 2 % of the
// planning rates.
func plannerOps(sc *scenario, prev *plan, planner *joint.Planner, seed int64) (planDelta, observe func() error, err error) {
	drifted := withUplink(sc, 0, 0.7)
	dirty := make([]bool, len(sc.Servers))
	dirty[0] = true
	joint.ExtendFrontierSet(planner.Opt.Frontiers, drifted, planner.Opt, dirty)
	planDelta = func() error {
		_, err := planner.PlanDelta(drifted, prev, dirty)
		return err
	}
	disp, err := joint.NewDispatcherWithPlan(sc, planner, prev)
	if err != nil {
		return nil, nil, err
	}
	base := meanUplinks(sc)
	rng := rand.New(rand.NewSource(seed))
	observe = func() error {
		rates := make([]float64, len(base))
		for s := range rates {
			rates[s] = base[s] * (0.98 + 0.04*rng.Float64())
		}
		_, err := disp.Observe(nil, rates)
		return err
	}
	return planDelta, observe, nil
}

// surgeryOps returns the surgery layer's three operations on one typical
// key (resnet18 on an rpi4 in front of a T4 at 32 Mbit/s): the optimizer,
// a frontier-table lookup, and a frontier-table build (each call tabulates
// a new key). probes reports the optimizer probes the builds have spent.
func surgeryOps() (optimize, lookup, buildFrontier func() error, probes func() int64, err error) {
	model, err := dnn.ByName("resnet18")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	device, err := hardware.ByName("rpi4")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	server, err := hardware.ByName("edge-gpu-t4")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	env := surgery.Env{
		Device: device, Server: server, ComputeShare: 0.25, BandwidthShare: 0.25,
		UplinkBps: netmodel.Mbps(32), RTT: 0.004, Difficulty: workload.EasyBiased, Rate: 0.05,
	}
	sopt := surgery.Options{FixedPartition: surgery.FreePartition}
	optimize = func() error {
		_, _, err := surgery.Optimize(model, env, sopt)
		return err
	}
	set := surgery.NewFrontierSet(surgery.BuildOptions{Surgery: sopt})
	key := surgery.KeyOf(model, env, sopt)
	if err := set.Build(key); err != nil {
		return nil, nil, nil, nil, err
	}
	i := 0
	lookup = func() error {
		i++
		f := 0.05 + float64(i%19)*0.05
		if _, _, ok := set.Lookup(key, f, 1-f/2); !ok {
			return errors.New("frontier lookup missed a tabulated key")
		}
		return nil
	}
	built := set.Probes()
	n := 0
	buildFrontier = func() error {
		n++
		e := env
		e.UplinkBps = netmodel.Mbps(32 + float64(n))
		return set.Build(surgery.KeyOf(model, e, sopt))
	}
	probes = func() int64 { return set.Probes() - built }
	return optimize, lookup, buildFrontier, probes, nil
}

// allocOp returns alloc.DeadlineAware over 128 seeded demands with slack
// deadlines (feasible by construction).
func allocOp(seed int64) func() error {
	rng := rand.New(rand.NewSource(seed))
	demands := make([]alloc.Demand, 128)
	for i := range demands {
		demands[i] = alloc.Demand{
			Fixed: 0.02, Server: 0.0005 + 0.002*rng.Float64(), Tx: 0.0005 + 0.002*rng.Float64(),
			Weight: 1, Deadline: 2, Rate: 0.05,
		}
	}
	return func() error {
		if a := alloc.DeadlineAware(demands); !a.Feasible {
			return errors.New("128-demand allocation came back infeasible")
		}
		return nil
	}
}

// telemetryOps returns the registry operations on the request and ingest
// paths — Counter.Inc, Histogram.Observe — and the /metrics rendering of a
// registry about the size the cluster's is.
func telemetryOps() (counterInc, histogramObserve, dump func() error) {
	reg := telemetry.NewRegistry()
	for i := 0; i < 40; i++ {
		reg.Counter(fmt.Sprintf("bench.counter.%02d", i)).Add(int64(i))
	}
	for i := 0; i < 8; i++ {
		reg.Gauge(fmt.Sprintf("bench.gauge.%d", i)).Set(float64(i) / 3)
		reg.Histogram(fmt.Sprintf("bench.hist.%d", i), 0.05, 0.1, 0.2, 0.4, 0.8).Observe(float64(i) / 10)
	}
	c := reg.Counter("bench.counter.00")
	h := reg.Histogram("bench.hist.0")
	x := 0.0
	counterInc = func() error { c.Inc(); return nil }
	histogramObserve = func() error {
		x += 0.013
		if x > 1 {
			x = 0
		}
		h.Observe(x)
		return nil
	}
	dump = func() error {
		if reg.Text() == "" {
			return errors.New("empty registry dump")
		}
		return nil
	}
	return counterInc, histogramObserve, dump
}

// --- wire ---------------------------------------------------------------

// wireCase is one message of the data plane's protocol with its codec
// operations: encode returns the frame payload size, decode parses a
// pre-encoded payload.
type wireCase struct {
	name   string
	encode func() (int, error)
	decode func() error
}

// wireCases returns the six messages that make up the plane's traffic.
func wireCases() []wireCase {
	entries := make([]wire.AllocEntry, 32)
	for i := range entries {
		entries[i] = wire.AllocEntry{
			User: i, Partition: 5, Theta: 0.3, Exits: []int{2, 4},
			ComputeShare: 0.03125, BandwidthShare: 0.03125,
		}
	}
	msgs := []struct {
		name string
		m    wire.Msg
	}{
		{"request", &wire.Request{Seq: 123456, User: 37}},
		{"response", &wire.Response{
			Seq: 123456, User: 37, Status: wire.StatusOK, Server: 1,
			DeviceSec: 0.0123456789, UplinkSec: 0.004321, QueueSec: 0.000123, ServerSec: 0.00987,
			TotalSec: 0.0123456789 + 0.004321 + 0.000123 + 0.00987,
		}},
		{"infer64k", &wire.Infer{Seq: 123456, User: 37, DeviceSec: 0.0123456789, Payload: make([]byte, 1<<16)}},
		{"inferresult", &wire.InferResult{Seq: 123456, User: 37, Status: wire.StatusOK, UplinkSec: 0.004321, QueueSec: 0.000123, ServerSec: 0.00987}},
		{"allocation32", &wire.Allocation{Epoch: 7, UplinkBps: 3.2e7, RTT: 0.004, Entries: entries}},
		{"telemetry", &wire.Telemetry{Time: 123.456, UplinkBps: 3.1415e7, Healthy: true}},
	}
	cases := make([]wireCase, len(msgs))
	for i, mc := range msgs {
		m := mc.m
		payload, err := wire.Encode(m)
		cases[i] = wireCase{
			name: mc.name,
			encode: func() (int, error) {
				b, err := wire.Encode(m)
				return len(b), err
			},
			decode: func() error {
				if err != nil {
					return err
				}
				_, derr := wire.Decode(payload)
				return derr
			},
		}
	}
	return cases
}

// pipeServer accepts the wire handshake on one end of a net.Pipe and then
// answers frames through handle until the peer hangs up. A pipe has no
// socket buffer, so the header exchange is ordered by hand (read theirs,
// then write ours) where wire.NewConn would write first on both ends.
func pipeServer(nc net.Conn, handle func(wire.Msg) wire.Msg) {
	defer nc.Close()
	r := bufio.NewReader(nc)
	if wire.ReadHeader(r) != nil || wire.WriteHeader(nc) != nil {
		return
	}
	for {
		payload, err := wire.ReadFrame(r)
		if err != nil {
			return
		}
		m, err := wire.Decode(payload)
		if err != nil {
			return
		}
		out, err := wire.Encode(handle(m))
		if err != nil || wire.WriteFrame(nc, out) != nil {
			return
		}
	}
}

// wireConnRoundTrip returns wire.Conn Send plus Recv of a Request against an
// echoing peer on a net.Pipe.
func wireConnRoundTrip() (op func() error, closeFn func(), err error) {
	a, b := net.Pipe()
	go pipeServer(b, func(m wire.Msg) wire.Msg { return m })
	conn, err := wire.NewConn(bufio.NewReader(a), a, a)
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	req := &wire.Request{Seq: 1, User: 37}
	op = func() error {
		if err := conn.Send(req); err != nil {
			return err
		}
		_, err := conn.Recv()
		return err
	}
	return op, func() { conn.Close() }, nil
}

// clientStubRoundTrip returns client.Do on a client.New connection over a
// net.Pipe whose far end is an in-bench responder: the client library and
// the codec, with no dispatcher and no kernel socket behind them.
func clientStubRoundTrip() (op func() error, closeFn func(), err error) {
	a, b := net.Pipe()
	go pipeServer(b, func(m wire.Msg) wire.Msg {
		switch m := m.(type) {
		case *wire.Hello:
			return &wire.Welcome{Servers: 1, Users: 64, ID: m.ID}
		case *wire.Request:
			return &wire.Response{Seq: m.Seq, User: m.User, Status: wire.StatusOK, Server: -1, DeviceSec: 0.01, TotalSec: 0.01}
		default:
			return &wire.ErrorMsg{Text: fmt.Sprintf("stub got %T", m)}
		}
	})
	c, err := client.New(a, client.Config{ID: "bench-stub", Window: 1})
	if err != nil {
		return nil, nil, err
	}
	op = func() error {
		_, err := c.Do(context.Background(), 37)
		return err
	}
	return op, func() { c.Close() }, nil
}

// --- agent --------------------------------------------------------------

// expectMsg receives frames until one of type T arrives, skipping the
// telemetry and heartbeats an agent interleaves.
func expectMsg[T wire.Msg](conn *wire.Conn) (T, error) {
	var zero T
	for {
		m, err := conn.Recv()
		if err != nil {
			return zero, err
		}
		switch m := m.(type) {
		case T:
			return m, nil
		case *wire.Telemetry, *wire.Heartbeat:
		case *wire.ErrorMsg:
			return zero, fmt.Errorf("peer reported: %s", m.Text)
		default:
			return zero, fmt.Errorf("expected %T, got %T", zero, m)
		}
	}
}

// runAgent starts agent.Run for server 0 of sc against addr with zero
// physics and telemetry effectively off; stop cancels it and waits.
func runAgent(sc *scenario, addr string) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = agent.Run(ctx, agent.Config{
			Scenario: sc, Server: 0, Dispatcher: addr,
			TimeScale: zeroPhysics, TelemetryPeriod: 1e15,
		})
	}()
	return func() { cancel(); wg.Wait() }
}

// dispatcherRoundTrips starts agent.StartDispatcher over a serve.Runtime
// with one in-process agent.Run, zero physics, and returns one raw-wire
// request round trip for a user whose plan is device-only (local) and one
// for a user whose every request crosses to the agent (offload). The
// scenario JSON must put such users at index 0 and 1.
func dispatcherRoundTrips(scenarioJSON []byte) (local, offload func() error, closeFn func(), err error) {
	sc, err := parseScenario(scenarioJSON)
	if err != nil {
		return nil, nil, nil, err
	}
	rt, err := serve.New(serve.Config{Scenario: sc, Policy: serve.NeverReplan()})
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := agent.StartDispatcher(agent.DispatcherConfig{Scenario: sc, Runtime: rt, TimeScale: zeroPhysics, Seed: 1})
	if err != nil {
		return nil, nil, nil, err
	}
	stopAgent := runAgent(sc, d.Addr())
	var conn *wire.Conn
	closeFn = func() {
		if conn != nil {
			conn.Close()
		}
		_ = d.Close()
		stopAgent()
		_ = rt.Close()
	}
	fail := func(err error) (func() error, func() error, func(), error) {
		closeFn()
		return nil, nil, nil, err
	}
	if err := d.WaitAgents(1, 10*time.Second); err != nil {
		return fail(err)
	}
	nc, err := net.Dial("tcp", d.Addr())
	if err != nil {
		return fail(err)
	}
	conn, err = wire.NewConn(bufio.NewReader(nc), nc, nc)
	if err != nil {
		nc.Close()
		return fail(err)
	}
	if err := conn.Send(&wire.Hello{Role: wire.RoleClient, ID: "bench-raw"}); err != nil {
		return fail(err)
	}
	if _, err := expectMsg[*wire.Welcome](conn); err != nil {
		return fail(err)
	}
	var seq uint64
	roundTrip := func(user int, wantCross bool) func() error {
		return func() error {
			seq++
			if err := conn.Send(&wire.Request{Seq: seq, User: user}); err != nil {
				return err
			}
			resp, err := expectMsg[*wire.Response](conn)
			if err != nil {
				return err
			}
			if resp.Status != wire.StatusOK || (resp.Server >= 0) != wantCross {
				return fmt.Errorf("user %d: status %d, server %d, want crossing=%t", user, resp.Status, resp.Server, wantCross)
			}
			return nil
		}
	}
	return roundTrip(0, false), roundTrip(1, true), closeFn, nil
}

// agentRoundTrips makes the benchmark the dispatcher of one real agent.Run:
// install pushes the agent its slice of a real plan (one entry per user)
// and waits for the AllocAck; infer hands it one 64 KiB activation and waits
// for the InferResult. Zero physics.
func agentRoundTrips(scenarioJSON []byte) (install, infer func() error, closeFn func(), err error) {
	sc, err := parseScenario(scenarioJSON)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := (&joint.Planner{}).Plan(sc)
	if err != nil {
		return nil, nil, nil, err
	}
	push := &wire.Allocation{UplinkBps: meanUplinks(sc)[0], RTT: sc.Servers[0].RTT}
	for ui := range p.Decisions {
		d := &p.Decisions[ui]
		if d.Server != 0 || d.ComputeShare <= 0 {
			return nil, nil, nil, fmt.Errorf("user %d is not offloaded to server 0; the install driver needs a full table", ui)
		}
		push.Entries = append(push.Entries, wire.AllocEntry{
			User: ui, Partition: d.Plan.Partition, Theta: d.Plan.Theta, Exits: d.Plan.Exits,
			ComputeShare: d.ComputeShare, BandwidthShare: d.BandwidthShare,
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	defer ln.Close()
	stopAgent := runAgent(sc, ln.Addr().String())
	_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
	nc, err := ln.Accept()
	if err != nil {
		stopAgent()
		return nil, nil, nil, err
	}
	closeFn = func() { nc.Close(); stopAgent() }
	fail := func(err error) (func() error, func() error, func(), error) {
		closeFn()
		return nil, nil, nil, err
	}
	conn, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
	if err != nil {
		return fail(err)
	}
	if _, err := expectMsg[*wire.Hello](conn); err != nil {
		return fail(err)
	}
	if err := conn.Send(&wire.Welcome{Servers: len(sc.Servers), Users: len(sc.Users)}); err != nil {
		return fail(err)
	}
	install = func() error {
		push.Epoch++
		if err := conn.Send(push); err != nil {
			return err
		}
		_, err := expectMsg[*wire.AllocAck](conn)
		return err
	}
	var seq uint64
	payload := make([]byte, 1<<16)
	infer = func() error {
		seq++
		if err := conn.Send(&wire.Infer{Seq: seq, User: 0, DeviceSec: 0.01, Payload: payload}); err != nil {
			return err
		}
		res, err := expectMsg[*wire.InferResult](conn)
		if err == nil && res.Status != wire.StatusOK {
			err = fmt.Errorf("agent returned status %d", res.Status)
		}
		return err
	}
	if err := install(); err != nil {
		return fail(err)
	}
	return install, infer, closeFn, nil
}
