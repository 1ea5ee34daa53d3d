// Package agent implements both ends of the networked data plane: the
// edge-server agent process (this file) that executes suffix inference under
// pushed allocations, and the dispatcher (dispatcher.go) that owns the
// serve.Runtime control loop and routes client requests.
//
// An agent serves exactly one edge server from the shared scenario. It dials
// the dispatcher, registers with the canonical telemetry.SourceID of its
// server, and then obeys two message flows:
//
//   - Allocation pushes install a per-user service table derived from the
//     live joint.Plan: for each assigned user the agent re-evaluates the
//     pushed surgery plan against its own copy of the scenario's cost model
//     (surgery.Evaluate), yielding the conditional per-request uplink and
//     server-compute times at the pushed shares. Oversubscribed pushes
//     (Σ shares > 1) are refused.
//   - Infer requests carry the device-prefix result handed off at the
//     partition point; the agent models the activation transfer, enforces
//     GPU-share scheduling (same-user requests serialize on the user's
//     share; distinct users hold disjoint shares and run concurrently), and
//     replies with the per-stage timing the dispatcher folds into the
//     response's latency decomposition.
//
// Time is modelled on one Clock (clock.go). Device prefix, activation
// transfer and suffix service each end at an absolute model instant counted
// from the request's arrival, and the stage seconds a response carries are
// differences of those instants. A request is a record that whoever holds
// its next event (a clock callback, a read loop, a timeout) continues; no
// goroutine waits on its behalf. By default the clock is the wall clock
// scaled by TimeScale — one model-second costs TimeScale wall-seconds, so CI
// runs a faithful 60-model-second workload in ~1s — with deadlines kept by
// internal/pace; a test substitutes a clock it advances by hand. Nothing else
// in the package may sleep (TestNoStraySleeps).
package agent

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/telemetry"
	"edgesurgeon/internal/wire"
)

// shareSlack tolerates float dust when validating Σ shares ≤ 1.
const shareSlack = 1e-6

// Config configures one agent process.
type Config struct {
	// Scenario is the agent's copy of the deployment scenario; every agent
	// and the dispatcher must parse the same scenario file so cost-model
	// evaluations agree bit-for-bit.
	Scenario *joint.Scenario
	// Server is the index of the edge server this agent serves.
	Server int
	// Dispatcher is the dispatcher's TCP address (host:port).
	Dispatcher string
	// TimeScale is wall-seconds per model-second; 0 means 1 (real time).
	TimeScale float64
	// Clock is the model clock the agent waits on; nil means the wall clock
	// scaled by TimeScale, which is what every binary runs on.
	Clock Clock
	// TelemetryPeriod is the model-seconds between telemetry samples;
	// 0 means 2.
	TelemetryPeriod float64
	// Logf, when set, receives agent lifecycle logging.
	Logf func(format string, args ...any)
}

// id is the agent's registration ID: the canonical telemetry.SourceID, which
// keeps quarantine standings, drift gauges, and wire registrations on one
// naming scheme.
func (c *Config) id() string { return telemetry.SourceID(c.Server) }

func (c *Config) telemetryPeriod() float64 {
	if c.TelemetryPeriod > 0 {
		return c.TelemetryPeriod
	}
	return 2
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// userSlot is the installed service table entry for one assigned user.
type userSlot struct {
	// condUplinkBits is the conditional (given the task crossed the
	// partition) per-request activation transfer in bits, already divided
	// by the user's bandwidth share. Bits are physical — they do not
	// depend on the dispatcher's possibly-stale rate estimate — so the
	// transfer is timed against the link's actual rate at send time and
	// every policy arm experiences the same fading physics.
	condUplinkBits float64
	// condServerSec is the conditional per-request compute time in
	// model-seconds at the pushed compute share.
	condServerSec float64

	mu sync.Mutex
	// nextFree is the model instant this user's GPU share frees up;
	// same-user requests serialize here.
	nextFree float64
}

// Agent is a running edge-server agent.
type Agent struct {
	cfg   Config
	ob    *outbox // every frame to the dispatcher, results first among them
	clock Clock

	// slots is the installed service table: an immutable snapshot handleInfer
	// reads without a lock, replaced by install under mu.
	slots atomic.Pointer[map[int]*userSlot]

	mu    sync.Mutex
	epoch uint64
}

// newAgent starts the outbox writer on conn; shutting the outbox ends both.
func newAgent(cfg Config, conn *wire.Conn) *Agent {
	a := &Agent{cfg: cfg, ob: newOutbox(conn, nil, agentQueue, 0), clock: orWall(cfg.Clock, scaleOrOne(cfg.TimeScale))}
	a.slots.Store(&map[int]*userSlot{})
	go a.ob.run()
	return a
}

// send queues one frame for the dispatcher. An outbox that cannot take it —
// full, or its writer dead — ends the connection, which the dispatcher
// evacuates like any lost agent: a result is never dropped silently.
func (a *Agent) send(m wire.Msg) {
	if !a.ob.enqueue(m) {
		a.ob.shut(errOutboxDead)
	}
}

// Run dials the dispatcher and serves until the connection drops or ctx is
// cancelled. It returns nil on a clean shutdown (ctx cancelled, during the
// handshake too), and the transport error otherwise. The dial and the
// header + Hello/Welcome exchange are bounded by handshakeTimeout, as the
// dispatcher bounds its side.
func Run(ctx context.Context, cfg Config) error {
	sc := cfg.Scenario
	if sc == nil {
		return fmt.Errorf("agent: no scenario")
	}
	if cfg.Server < 0 || cfg.Server >= len(sc.Servers) {
		return fmt.Errorf("agent: server index %d out of range (scenario has %d servers)", cfg.Server, len(sc.Servers))
	}
	// A cancelled ctx is a clean shutdown, whatever error it caused.
	clean := func(err error) error {
		if ctx.Err() != nil {
			return nil
		}
		return err
	}
	nc, err := (&net.Dialer{Timeout: handshakeTimeout}).DialContext(ctx, "tcp", cfg.Dispatcher)
	if err != nil {
		return clean(fmt.Errorf("agent: dialing dispatcher: %w", err))
	}
	defer nc.Close()
	// Unblock the handshake, then the read loop, when ctx is cancelled.
	defer context.AfterFunc(ctx, func() { nc.Close() })()
	_ = nc.SetDeadline(time.Now().Add(handshakeTimeout))
	conn, err := handshake(nc, cfg)
	if err != nil {
		return clean(err)
	}
	_ = nc.SetDeadline(time.Time{})
	cfg.logf("agent %s: registered for server %d at %s", cfg.id(), cfg.Server, cfg.Dispatcher)

	a := newAgent(cfg, conn)
	defer a.ob.shut(nil)
	go a.telemetryLoop()
	for {
		m, err := conn.Recv()
		if err != nil {
			return clean(fmt.Errorf("agent: connection to dispatcher lost: %w", err))
		}
		switch m := m.(type) {
		case *wire.Allocation:
			if err := a.install(m); err != nil {
				cfg.logf("agent %s: refusing allocation epoch %d: %v", cfg.id(), m.Epoch, err)
				a.send(&wire.ErrorMsg{Text: err.Error()})
				continue
			}
			a.send(&wire.AllocAck{Epoch: m.Epoch})
		case *wire.Infer:
			a.handleInfer(m)
		case *wire.Heartbeat:
			// Liveness probe; telemetry already flows the other way.
		default:
			cfg.logf("agent %s: ignoring unexpected %T", cfg.id(), m)
		}
	}
}

// handshake exchanges wire headers and Hello/Welcome with the dispatcher on
// nc and checks that both ends parsed the same scenario.
func handshake(nc net.Conn, cfg Config) (*wire.Conn, error) {
	sc := cfg.Scenario
	conn, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
	if err != nil {
		return nil, fmt.Errorf("agent: handshake: %w", err)
	}
	if err := conn.Send(&wire.Hello{Role: wire.RoleAgent, ID: cfg.id(), Server: cfg.Server}); err != nil {
		return nil, err
	}
	m, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("agent: awaiting welcome: %w", err)
	}
	switch m := m.(type) {
	case *wire.ErrorMsg:
		return nil, fmt.Errorf("agent: dispatcher refused registration: %s", m.Text)
	case *wire.Welcome:
		if m.Servers != len(sc.Servers) || m.Users != len(sc.Users) {
			return nil, fmt.Errorf("agent: scenario mismatch: dispatcher has %d servers/%d users, agent has %d/%d",
				m.Servers, m.Users, len(sc.Servers), len(sc.Users))
		}
		return conn, nil
	}
	return nil, fmt.Errorf("agent: expected Welcome, got %T", m)
}

// install validates an allocation push against the agent's own cost model
// and swaps in the new service table. Per-user queue state (nextFree)
// carries over across replans so an allocation push never resets an
// in-flight backlog.
func (a *Agent) install(alloc *wire.Allocation) error {
	if math.IsNaN(alloc.UplinkBps) || math.IsInf(alloc.UplinkBps, 0) || math.IsNaN(alloc.RTT) || math.IsInf(alloc.RTT, 0) {
		return fmt.Errorf("agent: allocation pushes uplink %g bps and RTT %g s; both must be finite", alloc.UplinkBps, alloc.RTT)
	}
	sc := a.cfg.Scenario
	srv := sc.Servers[a.cfg.Server]
	slots := make(map[int]*userSlot, len(alloc.Entries))
	var sumCompute, sumBandwidth float64
	for _, e := range alloc.Entries {
		if e.User < 0 || e.User >= len(sc.Users) {
			return fmt.Errorf("agent: allocation names unknown user %d", e.User)
		}
		if _, dup := slots[e.User]; dup {
			return fmt.Errorf("agent: allocation names user %d twice", e.User)
		}
		u := &sc.Users[e.User]
		plan := surgery.Plan{Model: u.Model, Exits: e.Exits, Theta: e.Theta, Partition: e.Partition}
		env := surgery.Env{
			Device:         u.Device,
			Server:         srv.Profile,
			ComputeShare:   e.ComputeShare,
			UplinkBps:      alloc.UplinkBps,
			BandwidthShare: e.BandwidthShare,
			RTT:            alloc.RTT,
			Difficulty:     u.Difficulty,
			Curves:         sc.Curves,
			TxFactor:       u.TxCompression,
		}
		ev, err := surgery.Evaluate(plan, env)
		if err != nil {
			return fmt.Errorf("agent: evaluating pushed plan for user %d: %w", e.User, err)
		}
		sumCompute += e.ComputeShare
		sumBandwidth += e.BandwidthShare
		slot := &userSlot{}
		if ev.CrossProb > 0 {
			// TxSec was evaluated at the pushed UplinkBps; multiplying the
			// rate back out recovers the share-adjusted conditional bits,
			// which hold however the link fades afterwards.
			slot.condUplinkBits = ev.TxSec * alloc.UplinkBps / ev.CrossProb / e.BandwidthShare
			slot.condServerSec = ev.ServerSec / ev.CrossProb / e.ComputeShare
		}
		slots[e.User] = slot
	}
	if sumCompute > 1+shareSlack {
		return fmt.Errorf("agent: allocation oversubscribes compute: Σ shares = %g", sumCompute)
	}
	if sumBandwidth > 1+shareSlack {
		return fmt.Errorf("agent: allocation oversubscribes bandwidth: Σ shares = %g", sumBandwidth)
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if alloc.Epoch < a.epoch {
		return fmt.Errorf("agent: stale allocation epoch %d (have %d)", alloc.Epoch, a.epoch)
	}
	installed := *a.slots.Load()
	for user, slot := range slots {
		if old, ok := installed[user]; ok {
			old.mu.Lock()
			slot.nextFree = old.nextFree
			old.mu.Unlock()
		}
	}
	a.epoch = alloc.Epoch
	a.slots.Store(&slots)
	return nil
}

func (a *Agent) slot(user int) *userSlot { return (*a.slots.Load())[user] }

// handleInfer admits one suffix inference, on the read loop, as two clock
// events: at sent, the end of the modelled activation transfer, it claims the
// user's GPU share (same-user FIFO by sent, not by arrival; distinct users
// hold disjoint shares and overlap freely), and at finish it queues the
// result. Every instant is model time counted from the Infer's arrival, so
// a late transfer event shortens the service wait, and QueueSec is the exact
// backlog the request found. The activation is on loan from the connection's
// receive frames until the result is queued.
func (a *Agent) handleInfer(m *wire.Infer) {
	arrive := a.clock.Now()
	slot := a.slot(m.User)
	if slot == nil {
		m.Release()
		a.send(&wire.InferResult{Seq: m.Seq, User: m.User, Status: wire.StatusRejected})
		return
	}
	uplinkSec := 0.0
	if slot.condUplinkBits > 0 {
		// Every link's rate is finite and positive (netmodel's constructors).
		uplinkSec = slot.condUplinkBits / a.cfg.Scenario.Servers[a.cfg.Server].Link.RateAt(arrive)
	}
	sent := arrive + uplinkSec
	res := &wire.InferResult{Seq: m.Seq, User: m.User, Status: wire.StatusOK, UplinkSec: uplinkSec, ServerSec: slot.condServerSec}
	a.clock.At(sent, func() {
		slot.mu.Lock()
		start := max(sent, slot.nextFree)
		finish := start + slot.condServerSec
		slot.nextFree = finish
		slot.mu.Unlock()
		res.QueueSec = start - sent
		a.clock.At(finish, func() {
			m.Release()
			a.send(res)
		})
	})
}

// telemetryLoop streams link-rate observations back to the dispatcher,
// stamped on the model clock; the samples double as liveness heartbeats. The
// cadence is off the request path and stays a wall ticker.
func (a *Agent) telemetryLoop() {
	link := a.cfg.Scenario.Servers[a.cfg.Server].Link
	period := time.Duration(a.cfg.telemetryPeriod() * scaleOrOne(a.cfg.TimeScale) * float64(time.Second))
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-a.ob.done: // the connection is over, ctx cancelled or not
			return
		case <-tick.C:
			t := a.clock.Now()
			a.send(&wire.Telemetry{Time: t, UplinkBps: link.RateAt(t), Healthy: true})
		}
	}
}
