package agent

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/serve"
	"edgesurgeon/internal/telemetry"
	"edgesurgeon/internal/wire"
	"edgesurgeon/internal/workload"
)

// testScenario builds a small two-server scenario with static uplinks.
func testScenario(t testing.TB, nUsers int, uplinkMbps float64) *joint.Scenario {
	t.Helper()
	byName := func(name string) *hardware.Profile {
		p, err := hardware.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	devices := []*hardware.Profile{byName("rpi4"), byName("phone-soc"), byName("jetson-nano")}
	models := []*dnn.Model{dnn.ResNet18(), dnn.AlexNet(), dnn.MobileNetV2(), dnn.VGG16()}
	sc := &joint.Scenario{
		Servers: []joint.Server{
			{Name: "edge-gpu", Profile: byName("edge-gpu-t4"),
				Link: netmodel.NewStatic("wifi-a", netmodel.Mbps(uplinkMbps), 0.004), RTT: 0.004},
			{Name: "edge-cpu", Profile: byName("edge-cpu-16c"),
				Link: netmodel.NewStatic("wifi-b", netmodel.Mbps(uplinkMbps*0.6), 0.006), RTT: 0.006},
		},
	}
	for i := 0; i < nUsers; i++ {
		sc.Users = append(sc.Users, joint.User{
			Name:       fmt.Sprintf("u%02d", i),
			Model:      models[i%len(models)],
			Device:     devices[i%len(devices)],
			Rate:       2 + float64(i%3),
			Deadline:   0.3,
			Difficulty: workload.EasyBiased,
			Arrivals:   workload.Poisson,
			Seed:       int64(1000 + i),
		})
	}
	return sc
}

// testPlane spins up a dispatcher plus one in-process agent per server and
// waits for the readiness barrier. TimeScale makes model-seconds cheap.
func testPlane(t *testing.T, sc *joint.Scenario, policy serve.Policy) (*Dispatcher, *serve.Runtime, context.CancelFunc) {
	t.Helper()
	rt, err := serve.New(serve.Config{Scenario: sc, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	d, err := StartDispatcher(DispatcherConfig{
		Scenario: sc, Runtime: rt, TimeScale: 0.001, Seed: 42,
		limits: limits{inferTimeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	for s := range sc.Servers {
		go func() {
			_ = Run(ctx, Config{
				Scenario: sc, Server: s, Dispatcher: d.Addr(),
				TimeScale: 0.001, TelemetryPeriod: 5,
			})
		}()
	}
	if err := d.WaitAgents(len(sc.Servers), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		d.Close()
		rt.Close()
	})
	return d, rt, cancel
}

// dialClient opens a client connection to the dispatcher.
func dialClient(t testing.TB, addr string) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Hello{Role: wire.RoleClient, ID: "client"}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*wire.Welcome); !ok {
		t.Fatalf("expected Welcome, got %T", m)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestDefaultAgentIDIsCanonicalSourceID(t *testing.T) {
	cfg := Config{Server: 3}
	if got, want := cfg.id(), telemetry.SourceID(3); got != want {
		t.Fatalf("default agent ID %q, want canonical source ID %q", got, want)
	}
}

// TestEndToEndRequests drives one request per user through the full plane
// and checks the responses carry the plan's latency decomposition.
func TestEndToEndRequests(t *testing.T) {
	sc := testScenario(t, 4, 40)
	d, _, _ := testPlane(t, sc, serve.Hysteresis())
	conn := dialClient(t, d.Addr())

	plan := d.rt.Current()
	const perUser = 4
	total := perUser * len(sc.Users)
	go func() {
		seq := uint64(0)
		for r := 0; r < perUser; r++ {
			for u := range sc.Users {
				seq++
				if err := conn.Send(&wire.Request{Seq: seq, User: u}); err != nil {
					t.Errorf("send request: %v", err)
					return
				}
			}
		}
	}()
	crossed := 0
	for i := 0; i < total; i++ {
		m, err := conn.Recv()
		if err != nil {
			t.Fatalf("recv response %d: %v", i, err)
		}
		resp, ok := m.(*wire.Response)
		if !ok {
			t.Fatalf("expected Response, got %T", m)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("request %d (user %d) failed with status %d", resp.Seq, resp.User, resp.Status)
		}
		dec := plan.Decisions[resp.User]
		if resp.Server >= 0 {
			crossed++
			if dec.Eval.CrossProb == 0 {
				t.Fatalf("user %d crossed but plan says CrossProb 0", resp.User)
			}
			if resp.UplinkSec <= 0 || resp.ServerSec <= 0 {
				t.Fatalf("crossing response missing stage timings: %+v", resp)
			}
			want := resp.DeviceSec + resp.UplinkSec + resp.QueueSec + resp.ServerSec
			if diff := resp.TotalSec - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("response total %g does not decompose into stages summing to %g", resp.TotalSec, want)
			}
		} else if resp.TotalSec != resp.DeviceSec {
			t.Fatalf("local response total %g != device %g", resp.TotalSec, resp.DeviceSec)
		}
	}
	// With 40 Mbps uplinks the planner offloads aggressively; a plane where
	// nothing ever crosses the partition is not exercising the handoff.
	if crossed == 0 {
		t.Fatal("no request crossed the partition; handoff path untested")
	}
	t.Logf("%d/%d requests crossed to an agent", crossed, total)
}

// wirePair is a private wire connection: an agent under test writes to one
// end, the test reads the other.
func wirePair(t *testing.T) (agentSide, peer *wire.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type acceptRes struct {
		conn *wire.Conn
		err  error
	}
	ch := make(chan acceptRes, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			ch <- acceptRes{nil, err}
			return
		}
		c, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
		ch <- acceptRes{c, err}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	agentSide, err = wire.NewConn(bufio.NewReader(nc), nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agentSide.Close() })
	accepted := <-ch
	if accepted.err != nil {
		t.Fatal(accepted.err)
	}
	t.Cleanup(func() { accepted.conn.Close() })
	return agentSide, accepted.conn
}

// TestSameUserRequestsSerialize pins the GPU-share scheduler on a clock the
// test advances by hand: four requests for one user that arrive at the same
// instant are served one after another on that user's share, so with s the
// installed service time they report QueueSec 0, s, 2s and 3s — exactly, the
// values being differences of model instants and nothing measured — and none
// is answered before the clock reaches its finish. The backlog survives a
// replan: a request that arrives after a new allocation was installed queues
// behind the four that the old one admitted.
func TestSameUserRequestsSerialize(t *testing.T) {
	sc := testScenario(t, 2, 40)
	// The transfer takes no model time, so the four are "sent" at the instant
	// they arrive, 0, and every instant below is a small multiple of s: the
	// float sums that produce them are exact. No constructor builds a link
	// that fast, so the test writes it out.
	sc.Servers[0].Link = &netmodel.StaticLink{LinkName: "instant", RateBps: math.Inf(1), RTTSec: 0.004}
	agentSide, peer := wirePair(t)
	clock := newFakeClock()
	a := newAgent(Config{Scenario: sc, Server: 0, Clock: clock}, agentSide)
	t.Cleanup(func() { a.ob.shut(nil) })
	// Full offload (partition 0) has CrossProb 1, so the conditional server
	// time is deterministic and strictly positive.
	push := func(epoch uint64, computeShare float64) error {
		return a.install(&wire.Allocation{
			Epoch: epoch, UplinkBps: netmodel.Mbps(40), RTT: 0.004,
			Entries: []wire.AllocEntry{{User: 0, Partition: 0, ComputeShare: computeShare, BandwidthShare: 0.5}},
		})
	}
	if err := push(1, 0.5); err != nil {
		t.Fatal(err)
	}
	s := a.slot(0).condServerSec
	if s <= 0 {
		t.Fatalf("full-offload slot has condServerSec %g, want > 0", s)
	}
	recv := func() *wire.InferResult {
		t.Helper()
		m, err := peer.Recv()
		if err != nil {
			t.Fatal(err)
		}
		res, ok := m.(*wire.InferResult)
		if !ok {
			t.Fatalf("expected InferResult, got %T", m)
		}
		if res.Status != wire.StatusOK {
			t.Fatalf("infer %d status %d", res.Seq, res.Status)
		}
		return res
	}

	const n = 4
	for i := uint64(1); i <= n; i++ {
		a.handleInfer(&wire.Infer{Seq: i, User: 0})
	}
	clock.awaitBlocked(t, n) // each has its place in the queue and waits for its finish
	if got := a.slot(0).nextFree; got != n*s {
		t.Fatalf("after %d admissions the share frees at %v, want %v", n, got, n*s)
	}

	// A replan halves the share. The queue carries over; the service time
	// of what arrives from now on does not.
	if err := push(2, 0.25); err != nil {
		t.Fatal(err)
	}
	s2 := a.slot(0).condServerSec
	if s2 <= s {
		t.Fatalf("half the share serves in %v, no slower than %v", s2, s)
	}
	if got := a.slot(0).nextFree; got != n*s {
		t.Fatalf("install moved the backlog: share frees at %v, want %v", got, n*s)
	}
	a.handleInfer(&wire.Infer{Seq: n + 1, User: 0})
	clock.awaitBlocked(t, 1)

	for k := 1; k <= n; k++ {
		clock.advance(float64(k) * s)
		res := recv() // the only request whose finish the clock has reached
		if res.Seq != uint64(k) {
			t.Fatalf("step %d answered request %d: the share is claimed in arrival order", k, res.Seq)
		}
		if want := float64(k-1) * s; res.QueueSec != want || res.UplinkSec != 0 || res.ServerSec != s {
			t.Errorf("request served %d: uplink %v queue %v server %v, want 0, %v (%d x s), %v",
				k, res.UplinkSec, res.QueueSec, res.ServerSec, want, k-1, s)
		}
	}
	clock.advance(n*s + s2)
	if res := recv(); res.Seq != n+1 || res.QueueSec != n*s || res.ServerSec != s2 {
		t.Errorf("request after the replan: seq %d queue %v server %v, want %d, %v, %v", res.Seq, res.QueueSec, res.ServerSec, n+1, n*s, s2)
	}

	// An oversubscribed push must be refused outright.
	bad := &wire.Allocation{
		Epoch: 3, UplinkBps: netmodel.Mbps(40), RTT: 0.004,
		Entries: []wire.AllocEntry{
			{User: 0, Partition: 0, ComputeShare: 0.7, BandwidthShare: 0.5},
			{User: 1, Partition: 0, ComputeShare: 0.7, BandwidthShare: 0.5},
		},
	}
	if err := a.install(bad); err == nil {
		t.Fatal("oversubscribed allocation (Σ compute 1.4) was accepted")
	}
}

// TestInstallRefusesNonFiniteAllocation: an allocation comes off the wire,
// so a NaN share, a NaN or infinite rate or a non-finite RTT must be refused
// before it reaches a slot. Each was installed once and left the slot's
// conditional server seconds or uplink bits NaN (0·Inf is NaN).
func TestInstallRefusesNonFiniteAllocation(t *testing.T) {
	sc := testScenario(t, 1, 40)
	agentSide, _ := wirePair(t)
	a := newAgent(Config{Scenario: sc, Server: 0, Clock: newFakeClock()}, agentSide)
	t.Cleanup(func() { a.ob.shut(nil) })
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name                  string
		compute, bandwidth    float64
		uplinkBps, rttSeconds float64
	}{
		{"compute share NaN", nan, 0.5, netmodel.Mbps(40), 0.004},
		{"bandwidth share NaN", 0.5, nan, netmodel.Mbps(40), 0.004},
		{"uplink NaN", 0.5, 0.5, nan, 0.004},
		{"uplink +Inf", 0.5, 0.5, inf, 0.004},
		{"RTT NaN", 0.5, 0.5, netmodel.Mbps(40), nan},
		{"RTT +Inf", 0.5, 0.5, netmodel.Mbps(40), inf},
	} {
		err := a.install(&wire.Allocation{
			Epoch: 1, UplinkBps: tc.uplinkBps, RTT: tc.rttSeconds,
			Entries: []wire.AllocEntry{{User: 0, Partition: 0, ComputeShare: tc.compute, BandwidthShare: tc.bandwidth}},
		})
		if err == nil {
			slot := a.slot(0)
			t.Errorf("%s: installed, slot reads condServerSec %g condUplinkBits %g", tc.name, slot.condServerSec, slot.condUplinkBits)
		}
	}
}

// TestLaneClaimedAtSentNotArrival: a user's share is claimed in the order
// transfers end, not the order Infers arrive. On a link that speeds up
// twentyfold at model instant s, request 1 arrives at 0 and transfers until
// 2s, request 2 arrives at s and is sent at 1.1s: it takes the share first
// and finds it free, and request 1 queues behind it until 2.1s.
func TestLaneClaimedAtSentNotArrival(t *testing.T) {
	sc := testScenario(t, 2, 40)
	agentSide, peer := wirePair(t)
	clock := newFakeClock()
	a := newAgent(Config{Scenario: sc, Server: 0, Clock: clock}, agentSide)
	t.Cleanup(func() { a.ob.shut(nil) })
	err := a.install(&wire.Allocation{
		Epoch: 1, UplinkBps: netmodel.Mbps(40), RTT: 0.004,
		Entries: []wire.AllocEntry{{User: 0, Partition: 0, ComputeShare: 0.5, BandwidthShare: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	slot := a.slot(0)
	bits, s := slot.condUplinkBits, slot.condServerSec
	if bits <= 0 || s <= 0 {
		t.Fatalf("full-offload slot has %g bits and %g s of service, want both > 0", bits, s)
	}
	sc.Servers[0].Link, err = netmodel.NewTrace("speeds-up", []float64{0, s}, []float64{bits / (2 * s), bits / (0.1 * s)}, 0.004)
	if err != nil {
		t.Fatal(err)
	}
	a.handleInfer(&wire.Infer{Seq: 1, User: 0})
	clock.advance(s)
	a.handleInfer(&wire.Infer{Seq: 2, User: 0})
	clock.awaitBlocked(t, 2)
	for clock.earliest() < math.Inf(1) {
		clock.advance(clock.earliest())
	}
	for i, want := range []uint64{2, 1} {
		m, err := peer.Recv()
		if err != nil {
			t.Fatal(err)
		}
		res := m.(*wire.InferResult)
		if res.Seq != want || (want == 2) != (res.QueueSec == 0) || res.QueueSec < 0 {
			t.Errorf("result %d: request %d queued %v; want request %d, queued only if it is request 1", i+1, res.Seq, res.QueueSec, want)
		}
	}
}

// TestAgentDisconnectEvacuates kills one in-process agent mid-run and
// asserts the disconnect routes through the fault machinery: the joint
// dispatcher's evacuation fires and later requests still complete.
func TestAgentDisconnectEvacuates(t *testing.T) {
	sc := testScenario(t, 4, 40)
	rt, err := serve.New(serve.Config{Scenario: sc, Policy: serve.Hysteresis()})
	if err != nil {
		t.Fatal(err)
	}
	d, err := StartDispatcher(DispatcherConfig{
		Scenario: sc, Runtime: rt, TimeScale: 0.001, Seed: 7,
		limits: limits{inferTimeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close(); rt.Close() })

	ctxes := make([]context.CancelFunc, len(sc.Servers))
	for s := range sc.Servers {
		ctx, cancel := context.WithCancel(context.Background())
		ctxes[s] = cancel
		go func() {
			_ = Run(ctx, Config{
				Scenario: sc, Server: s, Dispatcher: d.Addr(),
				TimeScale: 0.001, TelemetryPeriod: 5,
			})
		}()
	}
	t.Cleanup(func() {
		for _, cancel := range ctxes {
			cancel()
		}
	})
	if err := d.WaitAgents(len(sc.Servers), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	conn := dialClient(t, d.Addr())

	drive := func(firstSeq uint64, n int) {
		t.Helper()
		go func() {
			for i := 0; i < n; i++ {
				if err := conn.Send(&wire.Request{Seq: firstSeq + uint64(i), User: i % len(sc.Users)}); err != nil {
					return
				}
			}
		}()
		for i := 0; i < n; i++ {
			m, err := conn.Recv()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			resp, ok := m.(*wire.Response)
			if !ok {
				t.Fatalf("expected Response, got %T", m)
			}
			if resp.Status != wire.StatusOK {
				t.Fatalf("request %d failed after evacuation window (status %d)", resp.Seq, resp.Status)
			}
		}
	}
	drive(1, 8)

	// Kill the agent serving server 0 and wait for the control plane to
	// register the disconnect.
	ctxes[0]()
	deadline := time.Now().Add(10 * time.Second)
	for rt.Metrics().Counter("dispatcher.evacuated").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("evacuation never fired after agent disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Requests must keep completing against the evacuated plan.
	drive(1000, 8)
	if got := rt.Metrics().Counter("dataplane.requests_ok").Value(); got < 16 {
		t.Fatalf("only %d requests completed OK, want >= 16", got)
	}
}

// TestVersionOneRefused: a peer still speaking wire version 1 is refused at
// the header in both directions. A v1 agent or client dialling the dispatcher
// reads the dispatcher's header and then the close — no Welcome, no
// registration, no allocation push, even if it sends its Hello regardless —
// and an agent whose dispatcher answers with a v1 header returns an error
// naming both versions.
func TestVersionOneRefused(t *testing.T) {
	sc := testScenario(t, 2, 40)
	d, rt := bareDispatcher(t, sc, serve.Hysteresis())
	v1 := append([]byte(wire.Magic), 1)
	var v2 bytes.Buffer
	if err := wire.WriteHeader(&v2); err != nil {
		t.Fatal(err)
	}
	for _, hello := range []*wire.Hello{
		{Role: wire.RoleAgent, ID: telemetry.SourceID(0), Server: 0},
		{Role: wire.RoleClient, ID: "v1-client"},
	} {
		nc, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := nc.Write(v1); err != nil {
			t.Fatal(err)
		}
		header := make([]byte, v2.Len())
		if _, err := io.ReadFull(nc, header); err != nil || !bytes.Equal(header, v2.Bytes()) {
			t.Fatalf("role %d: the dispatcher's header read % x (%v), want % x", hello.Role, header, err, v2.Bytes())
		}
		payload, err := wire.Encode(hello) // a Hello has no float: its v1 and v2 bytes agree
		if err != nil {
			t.Fatal(err)
		}
		_ = wire.WriteFrame(nc, payload) // may already meet the close
		rest, err := io.ReadAll(nc)
		var ne net.Error
		if len(rest) != 0 || errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("role %d: after refusing the header the dispatcher sent %d more bytes and ended with %v, want the close alone", hello.Role, len(rest), err)
		}
		nc.Close()
	}
	reg := rt.Metrics()
	if n := reg.Gauge("dataplane.agents_connected").Value(); n != 0 {
		t.Fatalf("dataplane.agents_connected = %v after v1 peers only, want 0", n)
	}
	if n := reg.Counter("dataplane.alloc_pushes").Value(); n != 0 {
		t.Fatalf("dataplane.alloc_pushes = %d after v1 peers only, want 0", n)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		_, _ = nc.Write(v1)
		_, _ = io.Copy(io.Discard, nc)
	}()
	err = Run(context.Background(), Config{Scenario: sc, Server: 0, Dispatcher: ln.Addr().String()})
	if err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Fatalf("agent against a v1 dispatcher: got %v, want an error naming versions 1 and 2", err)
	}
}

// TestPublishPushesOnlyChangedSlices pins the allocation-push gate: a cheap
// refresh that leaves every decision as it was pushes nothing, and a changed
// decision pushes exactly once to each agent whose slice it touches.
func TestPublishPushesOnlyChangedSlices(t *testing.T) {
	sc := testScenario(t, 8, 40)
	d, rt, _ := testPlane(t, sc, serve.Hysteresis())
	pushes := rt.Metrics().Counter("dataplane.alloc_pushes")
	cheap := rt.Metrics().Counter("serve.replans.cheap")

	// Held to the end: no telemetry ingest may publish between the steps.
	d.ingestMu.Lock()
	defer d.ingestMu.Unlock()
	base, cheapBefore, before := pushes.Value(), cheap.Value(), d.plan.Load()

	// An observation at the planning rate is still an observation: the
	// runtime answers with a cheap refresh, whose surgery and allocation at
	// unchanged rates yield a new plan value holding the same decisions.
	uplinks := make([]float64, len(sc.Servers))
	uplinks[0] = rt.Rate(0)
	d.ingestLocked(telemetry.Sample{Uplinks: uplinks, Source: telemetry.SourceID(0)})
	if cheap.Value() != cheapBefore+1 || d.plan.Load() == before {
		t.Fatalf("the sample was not a cheap refresh onto a fresh plan (cheap %d → %d)", cheapBefore, cheap.Value())
	}
	if got := pushes.Value(); got != base {
		t.Fatalf("a cheap refresh with unchanged decisions pushed %d allocations", got-base)
	}

	// One user's share changes: its server's agent hears once, the other not.
	refreshed := d.plan.Load()
	user := -1
	for u := range refreshed.Decisions {
		if dec := &refreshed.Decisions[u]; dec.Server >= 0 && dec.ComputeShare > 0 {
			user = u
			break
		}
	}
	if user < 0 {
		t.Fatal("the plan offloads nobody; nothing to change")
	}
	edit := func(f func(*joint.Decision)) *joint.Plan {
		next := *refreshed
		next.Decisions = append([]joint.Decision(nil), refreshed.Decisions...)
		f(&next.Decisions[user])
		return &next
	}
	d.publishLocked(edit(func(dec *joint.Decision) { dec.ComputeShare *= 0.5 }))
	if got := pushes.Value(); got != base+1 {
		t.Fatalf("one changed share pushed %d allocations, want 1", got-base)
	}
	// The user moves to the other server: both agents' slices change.
	moved := edit(func(dec *joint.Decision) { dec.Server = 1 - dec.Server })
	d.publishLocked(moved)
	if got := pushes.Value(); got != base+3 {
		t.Fatalf("one moved user pushed %d allocations, want 2", got-base-1)
	}
	if d.plan.Load() != moved {
		t.Fatal("the routing plan is not the last published plan")
	}
}

// bareDispatcher starts a dispatcher on the wall clock with no agent: the
// test dials whatever peers it needs.
func bareDispatcher(t *testing.T, sc *joint.Scenario, policy serve.Policy) (*Dispatcher, *serve.Runtime) {
	t.Helper()
	rt, err := serve.New(serve.Config{Scenario: sc, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	d, err := StartDispatcher(DispatcherConfig{Scenario: sc, Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close(); rt.Close() })
	return d, rt
}

// dialAgent registers a hand-driven agent for server and returns its
// connection once the registration push has arrived, by which time the
// dispatcher has ingested the connect.
func dialAgent(t *testing.T, d *Dispatcher, sc *joint.Scenario, server int) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	conn, err := handshake(nc, Config{Scenario: sc, Server: server})
	if err != nil {
		nc.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	nextAlloc(t, conn)
	return conn
}

// nextAlloc reads conn up to the next Allocation.
func nextAlloc(t *testing.T, conn *wire.Conn) *wire.Allocation {
	t.Helper()
	for {
		m, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if a, ok := m.(*wire.Allocation); ok {
			return a
		}
	}
}

// sendInf sends n +Inf uplink samples, each of which the runtime rejects.
func sendInf(t *testing.T, conn *wire.Conn, n int) {
	t.Helper()
	for range n {
		if err := conn.Send(&wire.Telemetry{UplinkBps: math.Inf(1), Healthy: true}); err != nil {
			t.Fatal(err)
		}
	}
}

// waitFor polls cond for up to 10 s and fails the test naming what never
// happened.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestPushQuotesTheRuntimeRate pins the rate an allocation push quotes to
// the runtime's last-known rate: a +Inf observation the runtime rejects
// must not reach an agent through a later push.
func TestPushQuotesTheRuntimeRate(t *testing.T) {
	sc := testScenario(t, 4, 40)
	d, rt := bareDispatcher(t, sc, serve.Hysteresis())
	conn := dialAgent(t, d, sc, 0)
	rejected := rt.Metrics().Counter("serve.samples_rejected")
	sendInf(t, conn, 1)
	waitFor(t, "the +Inf sample to reach the runtime", func() bool { return rejected.Value() > 0 })
	d.ingestMu.Lock()
	d.pushLocked((*d.agents.Load())[0], d.plan.Load())
	d.ingestMu.Unlock()
	if got, want := nextAlloc(t, conn).UplinkBps, rt.Rate(0); got != want || math.IsInf(got, 0) {
		t.Fatalf("push after a rejected +Inf sample quotes %g bps, want the runtime's %g", got, want)
	}
}

// TestQuarantinedAgentDisconnectEvacuates: an agent muted for bad telemetry
// is still evacuated when it disconnects. The lost connection is the
// dispatcher's own observation, which no telemetry quarantine mutes.
func TestQuarantinedAgentDisconnectEvacuates(t *testing.T) {
	sc := testScenario(t, 4, 40)
	d, rt := bareDispatcher(t, sc, serve.Robust())
	onServer0 := func() (n int) {
		for _, dec := range rt.Current().Decisions {
			if dec.Server == 0 {
				n++
			}
		}
		return n
	}
	if onServer0() == 0 {
		t.Fatal("the plan puts nobody on server 0; nothing to evacuate")
	}
	reg := rt.Metrics()
	quarantined := reg.Counter("serve.quarantine.quarantined")
	dropped := reg.Counter("serve.quarantine.dropped")
	evacuated := reg.Counter("dispatcher.evacuated")

	conn := dialAgent(t, d, sc, 0)
	sendInf(t, conn, 3)
	waitFor(t, "the agent's quarantine", func() bool { return quarantined.Value() == 1 })
	before := dropped.Value()
	conn.Close()
	waitFor(t, "the disconnect to reach the runtime", func() bool { return evacuated.Value() > 0 || dropped.Value() > before })
	if got := dropped.Value(); got != before {
		t.Errorf("the disconnect was dropped as the quarantined agent's telemetry (serve.quarantine.dropped %d → %d)", before, got)
	}
	if evacuated.Value() == 0 {
		t.Error("dispatcher.evacuated = 0 after the agent disconnected")
	}
	if n := onServer0(); n > 0 {
		t.Errorf("%d users still planned on server 0, which has no agent", n)
	}
}

// TestReconnectKeepsQuarantineStrikes: an agent's connection coming and
// going is not its telemetry, so it does not clear the agent's quarantine
// strikes — two bad samples, a reconnect and one more trip the quarantine.
func TestReconnectKeepsQuarantineStrikes(t *testing.T) {
	sc := testScenario(t, 4, 40)
	d, rt := bareDispatcher(t, sc, serve.Robust())
	reg := rt.Metrics()
	rejected := reg.Counter("serve.samples_rejected")
	evacuated := reg.Counter("dispatcher.evacuated")

	conn := dialAgent(t, d, sc, 0)
	sendInf(t, conn, 2)
	waitFor(t, "two rejected samples", func() bool { return rejected.Value() == 2 })
	conn.Close()
	waitFor(t, "the disconnect's evacuation", func() bool { return evacuated.Value() > 0 })
	sendInf(t, dialAgent(t, d, sc, 0), 1)
	waitFor(t, "the third rejected sample", func() bool { return rejected.Value() == 3 })
	if got := reg.Counter("serve.quarantine.quarantined").Value(); got != 1 {
		t.Fatalf("serve.quarantine.quarantined = %d after three bad samples around a reconnect, want 1", got)
	}
}

// TestAgentReportsRefusal: an agent the dispatcher refuses returns the
// dispatcher's reason, not only the type of the frame that carried it.
func TestAgentReportsRefusal(t *testing.T) {
	sc := testScenario(t, 2, 40)
	d, _ := bareDispatcher(t, sc, serve.Hysteresis())
	wide := *sc
	wide.Servers = append(slices.Clone(sc.Servers), sc.Servers[1])
	err := Run(context.Background(), Config{Scenario: &wide, Server: 2, Dispatcher: d.Addr()})
	if err == nil || !strings.Contains(err.Error(), "server index 2 out of range") {
		t.Fatalf("agent for a server the dispatcher lacks: got %v, want the dispatcher's out-of-range refusal", err)
	}
}

// TestRunHonoursCancelDuringHandshake: an agent whose dispatcher accepts
// and then stays silent returns nil promptly once ctx is cancelled.
func TestRunHonoursCancelDuringHandshake(t *testing.T) {
	sc := testScenario(t, 2, 40)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if nc, err := ln.Accept(); err == nil {
			accepted <- nc
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	ret := make(chan error, 1)
	go func() { ret <- Run(ctx, Config{Scenario: sc, Server: 0, Dispatcher: ln.Addr().String()}) }()
	nc := <-accepted
	defer nc.Close()
	time.Sleep(50 * time.Millisecond) // let Run block in the handshake
	cancel()
	select {
	case err := <-ret:
		if err != nil {
			t.Fatalf("Run after cancel during the handshake: %v, want nil", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run still blocked in the handshake 1 s after cancel")
	}
}

// agentUnderTest makes the test the dispatcher of one real Run: it accepts
// the agent's registration on loopback, installs a one-user table (user 0,
// full offload) and returns the connection once the agent has acknowledged
// it. Zero physics, telemetry effectively off.
func agentUnderTest(t testing.TB) *wire.Conn {
	t.Helper()
	sc := testScenario(t, 2, 40)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = Run(ctx, Config{Scenario: sc, Server: 0, Dispatcher: ln.Addr().String(), TimeScale: 1e-9, TelemetryPeriod: 1e15})
	}()
	t.Cleanup(func() { cancel(); <-done })
	_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if m, err := conn.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*wire.Hello); !ok {
		t.Fatalf("expected Hello, got %T", m)
	}
	if err := conn.Send(&wire.Welcome{Servers: len(sc.Servers), Users: len(sc.Users)}); err != nil {
		t.Fatal(err)
	}
	err = conn.Send(&wire.Allocation{
		Epoch: 1, UplinkBps: netmodel.Mbps(40), RTT: 0.004,
		Entries: []wire.AllocEntry{{User: 0, Partition: 0, ComputeShare: 0.5, BandwidthShare: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m, err := conn.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*wire.AllocAck); !ok {
		t.Fatalf("expected AllocAck, got %T", m)
	}
	return conn
}

// TestAgentBorrowsTheActivation: a real Run answers a long stream of 64 KiB
// Infers — a window of them in flight, one in eight for a user it has no slot
// for — and the process allocates nothing payload-sized per Infer while it
// does: the activation stays in the receive frame it arrived in, and the
// frame goes back for the next one once the result is sent, on the
// rejected-slot path too.
func TestAgentBorrowsTheActivation(t *testing.T) {
	const warm, total, window = 64, 2000, 8
	conn := agentUnderTest(t)
	payload := make([]byte, 1<<16)
	sent := make(chan struct{}, window)
	drive := func(first, n int) {
		go func() {
			for seq := first; seq < first+n; seq++ {
				sent <- struct{}{}
				user := 0
				if seq%8 == 7 {
					user = 1
				}
				if err := conn.Send(&wire.Infer{Seq: uint64(seq), User: user, DeviceSec: 0.01, Payload: payload}); err != nil {
					t.Errorf("send %d: %v", seq, err)
					return
				}
			}
		}()
		for i := 0; i < n; i++ {
			m, err := conn.Recv()
			if err != nil {
				t.Fatalf("result %d of %d: %v", i, n, err)
			}
			res, ok := m.(*wire.InferResult)
			if !ok {
				t.Fatalf("expected InferResult, got %T", m)
			}
			wantUser, want := 0, uint64(wire.StatusOK)
			if res.Seq%8 == 7 {
				wantUser, want = 1, wire.StatusRejected
			}
			if res.User != wantUser || res.Status != want {
				t.Fatalf("Infer %d answered for user %d with status %d, want user %d, status %d", res.Seq, res.User, res.Status, wantUser, want)
			}
			<-sent
		}
	}
	drive(0, warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drive(warm, total)
	runtime.ReadMemStats(&after)
	perInfer := float64(after.TotalAlloc-before.TotalAlloc) / total
	t.Logf("%.0f bytes allocated per 64 KiB Infer, both ends of the hop in this process", perInfer)
	// Under the race detector sync.Pool drops a quarter of what it is given.
	if !raceEnabled && perInfer >= 2048 {
		t.Errorf("%.0f bytes allocated per 64 KiB Infer, want < 2 KiB", perInfer)
	}
}

// BenchmarkAgentInfer64k: the activation hop against a real Run — the
// benchmark is its dispatcher on loopback, one 64 KiB Infer out and its
// InferResult back per iteration, zero physics.
func BenchmarkAgentInfer64k(b *testing.B) {
	conn := agentUnderTest(b)
	infer := &wire.Infer{User: 0, DeviceSec: 0.01, Payload: make([]byte, 1<<16)}
	b.SetBytes(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infer.Seq++
		if err := conn.Send(infer); err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatcherRequests: the request path end to end in one process —
// a raw client keeping 32 requests in flight on one connection, the
// dispatcher, and an in-process agent.Run per server, on loopback with zero
// physics, round robin over users whose requests answer locally and cross.
// Besides allocs/op (client, dispatcher and agents together) it reports
// frames/flush, the frames one dispatcher write carries
// (dataplane.frames_flushed / dataplane.flushes), and crossed/op.
func BenchmarkDispatcherRequests(b *testing.B) {
	const inflight, zeroPhysics = 32, 1e-9
	sc := testScenario(b, 4, 40)
	rt, err := serve.New(serve.Config{Scenario: sc, Policy: serve.NeverReplan()})
	if err != nil {
		b.Fatal(err)
	}
	d, err := StartDispatcher(DispatcherConfig{Scenario: sc, Runtime: rt, TimeScale: zeroPhysics, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var agents sync.WaitGroup
	for s := range sc.Servers {
		agents.Add(1)
		go func() {
			defer agents.Done()
			_ = Run(ctx, Config{Scenario: sc, Server: s, Dispatcher: d.Addr(), TimeScale: zeroPhysics, TelemetryPeriod: 1e15})
		}()
	}
	b.Cleanup(func() { cancel(); d.Close(); agents.Wait(); rt.Close() })
	if err := d.WaitAgents(len(sc.Servers), 10*time.Second); err != nil {
		b.Fatal(err)
	}
	conn := dialClient(b, d.Addr())
	flushes, frames := rt.Metrics().Counter("dataplane.flushes"), rt.Metrics().Counter("dataplane.frames_flushed")
	slots := make(chan struct{}, inflight)
	b.ReportAllocs()
	b.ResetTimer()
	flushes0, frames0 := flushes.Value(), frames.Value()
	go func() {
		for i := 0; i < b.N; i++ {
			slots <- struct{}{}
			if conn.Send(&wire.Request{Seq: uint64(i + 1), User: i % len(sc.Users)}) != nil {
				return // the Recv below fails too
			}
		}
	}()
	crossed := 0
	for i := 0; i < b.N; i++ {
		m, err := conn.Recv()
		if err != nil {
			b.Fatal(err)
		}
		if resp, ok := m.(*wire.Response); !ok || resp.Status != wire.StatusOK {
			b.Fatalf("expected an OK Response, got %+v", m)
		} else if resp.Server >= 0 {
			crossed++
		}
		<-slots
	}
	b.StopTimer()
	b.ReportMetric(float64(frames.Value()-frames0)/float64(flushes.Value()-flushes0), "frames/flush")
	b.ReportMetric(float64(crossed)/float64(b.N), "crossed/op")
}
