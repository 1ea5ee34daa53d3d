package agent

import (
	"bufio"
	"cmp"
	"fmt"
	"maps"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/serve"
	"edgesurgeon/internal/telemetry"
	"edgesurgeon/internal/wire"
)

// payloadCap bounds the stand-in activation blob shipped per crossing
// request; real activations at common partition points are far larger, but
// the loopback plane only needs enough bytes to exercise framing.
const payloadCap = 1 << 16

// zeroActivation is the stand-in blob itself: every crossing ships a prefix
// of this one buffer, which nothing ever writes.
var zeroActivation [payloadCap]byte

// DispatcherConfig configures the wire-facing dispatcher.
type DispatcherConfig struct {
	// Scenario is the deployment; must be the same scenario the agents
	// parsed so cost evaluations agree.
	Scenario *joint.Scenario
	// Runtime is the serve control plane the dispatcher feeds telemetry to
	// and takes plans from. The caller owns it (and its Close).
	Runtime *serve.Runtime
	// Listen is the TCP address to bind; empty means "127.0.0.1:0".
	Listen string
	// TimeScale is wall-seconds per model-second; 0 means 1.
	TimeScale float64
	// Clock is the model clock requests wait on and samples are stamped
	// with; nil means the wall clock scaled by TimeScale, which is what every
	// binary runs on.
	Clock Clock
	// Seed fixes the partition-crossing sampler.
	Seed int64
	// Logf, when set, receives dispatcher lifecycle logging.
	Logf func(format string, args ...any)

	limits limits // in-package tests only
}

// The dispatcher's backpressure and timeout limits; in-package tests shrink
// them through DispatcherConfig.limits. A frame write that misses
// writeDeadline has a stalled reader behind it and may be half written, so
// the connection ends: a client is dropped, an agent marked suspect and
// evacuated.
const (
	inferTimeout  = 30 * time.Second // one remote suffix execution, wall time
	writeDeadline = 5 * time.Second  // one outbound frame write on any peer socket
	clientQueue   = 64               // a client's queued responses; overflow is shed (dataplane.client_shed)
	clientStrikes = 32               // sheds a client survives before it is dropped (dataplane.clients_dropped)
)

// limits overrides the constants above; a zero field keeps its constant.
// writeBuffer > 0 sets client sockets' kernel send buffer, which the
// dispatcher otherwise leaves to the OS, so a stalled reader exerts pressure
// within a few frames instead of a few hundred kilobytes.
type limits struct {
	inferTimeout, writeDeadline             time.Duration
	clientQueue, clientStrikes, writeBuffer int
}

// agentQueue bounds the outbound queue at each end of an agent connection
// (allocation pushes + Infer handoffs; results, acks, telemetry). Overflow
// ends the connection and the agent is evacuated: a peer that cannot drain
// this many frames is not serving.
const agentQueue = 256

// connectivitySource is the telemetry source of the health samples the
// dispatcher derives from agent connections. Agent telemetry is ingested
// under the canonical telemetry.SourceID of the agent's server, whatever ID
// its Hello claimed, so no peer can speak for this source.
const connectivitySource = "dispatcher"

// handshakeTimeout bounds the header + Hello/Welcome exchange so a peer
// that connects and goes silent cannot pin a handler goroutine.
const handshakeTimeout = 10 * time.Second

func (c *DispatcherConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// agentConn is one registered edge-server agent.
type agentConn struct {
	conn   *wire.Conn
	ob     *outbox
	id     string
	server int

	suspectOnce sync.Once

	mu      sync.Mutex
	pending map[uint64]*call // Infers awaiting their InferResult, by Infer Seq
	acked   bool             // has acknowledged at least one allocation push
}

// clientConn is one registered client: its connection, its bounded outbound
// queue, and its shed-strike standing.
type clientConn struct {
	conn     *wire.Conn
	ob       *outbox
	strikes  atomic.Int64
	dropped  atomic.Bool
	inflight sync.WaitGroup // requests read and not yet answered
}

// call is one client request in flight: a record, not a goroutine. Whoever
// holds its next event continues it — the clock at its device instant, the
// agent read loop with its InferResult, its Infer's timeout, the teardown of
// its agent — and every path ends in deliver.
type call struct {
	resp    wire.Response // the answer, filled in stage by stage
	cc      *clientConn
	dec     *joint.Decision // the routing decision the next stage follows
	retried bool
	timer   *time.Timer // the inferTimeout of the Infer in flight
}

// take removes the call an Infer is pending for, and stops its timeout; nil
// means another path already took it. Whoever takes a call finishes it.
func (ac *agentConn) take(seq uint64) *call {
	ac.mu.Lock()
	c := ac.pending[seq]
	delete(ac.pending, seq)
	ac.mu.Unlock()
	if c != nil {
		c.timer.Stop()
	}
	return c
}

// Dispatcher is the wire-facing control/data plane head: it accepts agent
// registrations and client requests on one TCP listener, feeds agent
// telemetry into the serve.Runtime (whose policy decides between full
// replan, delta replan, and the dispatcher's cheap evacuation path), pushes
// every resulting plan change to the affected agents as Allocation frames,
// and executes client requests against the live plan — device prefix
// simulated locally, suffix handed off to the assigned agent at the
// partition point.
type Dispatcher struct {
	cfg   DispatcherConfig
	rt    *serve.Runtime
	ln    net.Listener
	clock Clock
	seq   atomic.Uint64 // internal Infer sequence space

	plan atomic.Pointer[joint.Plan] // current published plan, for request routing

	// ingestMu serializes telemetry ingestion and the plan-push that
	// follows it, keeping sample times monotone and allocation epochs
	// ordered. The runtime owns every other piece of control-plane state:
	// rates, health, clock and plan are read from it, never copied.
	ingestMu sync.Mutex
	epoch    uint64

	// agents is the registered agent per server: an immutable snapshot the
	// request path reads without a lock, copied and replaced under mu.
	agents atomic.Pointer[map[int]*agentConn]

	mu      sync.Mutex
	clients map[*wire.Conn]struct{} // open client conns, closed on Close
	ever    []bool                  // has server s ever had an agent (guarded by mu)
	ready   *sync.Cond              // broadcast when an agent acks its first allocation

	// telemCh decouples telemetry ingestion (which may run a replan) from
	// the per-agent read loops, so a slow control-plane round never delays
	// InferResult delivery. Telemetry is lossy by nature: when the inbox
	// is full the sample is dropped and counted.
	telemCh chan telemItem
	done    chan struct{} // closed by Close, under mu: the one shutdown record

	wg sync.WaitGroup

	cRequests, cOK, cFailed, cRetries, cPushes *telemetry.Counter
	cTelemDropped, cTelemCoalesced             *telemetry.Counter
	cClientShed, cDeadlineTrips                *telemetry.Counter
	cClientsDropped, cAgentSuspect             *telemetry.Counter
	cFlushes, cFramesFlushed                   *telemetry.Counter
	gAgents                                    *telemetry.Gauge
}

// telemItem is one queued agent observation awaiting ingestion.
type telemItem struct {
	ac *agentConn
	m  *wire.Telemetry
}

// StartDispatcher binds the listener and begins accepting agents and
// clients. The initial plan is whatever the runtime currently publishes.
func StartDispatcher(cfg DispatcherConfig) (*Dispatcher, error) {
	if cfg.Scenario == nil || cfg.Runtime == nil {
		return nil, fmt.Errorf("agent: dispatcher needs a scenario and a runtime")
	}
	addr := cfg.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("agent: dispatcher listen: %w", err)
	}
	reg := cfg.Runtime.Metrics()
	l := &cfg.limits
	l.inferTimeout = cmp.Or(l.inferTimeout, inferTimeout)
	l.writeDeadline = cmp.Or(l.writeDeadline, writeDeadline)
	l.clientQueue = cmp.Or(l.clientQueue, clientQueue)
	l.clientStrikes = cmp.Or(l.clientStrikes, clientStrikes)
	d := &Dispatcher{
		cfg:             cfg,
		rt:              cfg.Runtime,
		ln:              ln,
		clock:           orWall(cfg.Clock, scaleOrOne(cfg.TimeScale)),
		ever:            make([]bool, len(cfg.Scenario.Servers)),
		clients:         map[*wire.Conn]struct{}{},
		telemCh:         make(chan telemItem, 256),
		done:            make(chan struct{}),
		cRequests:       reg.Counter("dataplane.requests"),
		cOK:             reg.Counter("dataplane.requests_ok"),
		cFailed:         reg.Counter("dataplane.requests_failed"),
		cRetries:        reg.Counter("dataplane.request_retries"),
		cPushes:         reg.Counter("dataplane.alloc_pushes"),
		cTelemDropped:   reg.Counter("dataplane.telemetry_dropped"),
		cTelemCoalesced: reg.Counter("dataplane.telemetry_coalesced"),
		cClientShed:     reg.Counter("dataplane.client_shed"),
		cDeadlineTrips:  reg.Counter("dataplane.write_deadline_trips"),
		cClientsDropped: reg.Counter("dataplane.clients_dropped"),
		cAgentSuspect:   reg.Counter("dataplane.agent_suspect"),
		cFlushes:        reg.Counter("dataplane.flushes"),
		cFramesFlushed:  reg.Counter("dataplane.frames_flushed"),
		gAgents:         reg.Gauge("dataplane.agents_connected"),
	}
	d.ready = sync.NewCond(&d.mu)
	d.agents.Store(&map[int]*agentConn{})
	d.plan.Store(cfg.Runtime.Current())
	d.wg.Add(2)
	go d.acceptLoop()
	go d.ingestLoop()
	return d, nil
}

// ingestLoop is the single consumer of queued telemetry.
func (d *Dispatcher) ingestLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.done:
			return
		case item := <-d.telemCh:
			d.onTelemetry(item.ac, item.m)
		}
	}
}

// Addr returns the bound listen address agents and clients should dial.
func (d *Dispatcher) Addr() string { return d.ln.Addr().String() }

// Close stops accepting, disconnects every peer, and waits for the
// connection handlers to drain. It does not close the serve.Runtime.
func (d *Dispatcher) Close() error {
	d.mu.Lock()
	if d.closing() {
		d.mu.Unlock()
		return nil
	}
	close(d.done)
	agents := *d.agents.Load() // final: registration refuses once closed
	clients := make([]*wire.Conn, 0, len(d.clients))
	for conn := range d.clients {
		clients = append(clients, conn)
	}
	d.ready.Broadcast()
	d.mu.Unlock()
	err := d.ln.Close()
	for _, ac := range agents {
		ac.conn.Close()
	}
	// Client conns must be force-closed too: their handler goroutines are
	// wg-joined, and a client idling in its own Recv would otherwise pin
	// Close until the client felt like leaving.
	for _, conn := range clients {
		conn.Close()
	}
	d.wg.Wait()
	return err
}

// WaitAgents blocks until n agents have acknowledged an allocation push (the
// readiness barrier cluster startup uses) or the timeout expires.
func (d *Dispatcher) WaitAgents(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		d.mu.Lock()
		d.ready.Broadcast()
		d.mu.Unlock()
	})
	defer timer.Stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		ready := 0
		for _, ac := range *d.agents.Load() {
			ac.mu.Lock()
			if ac.acked {
				ready++
			}
			ac.mu.Unlock()
		}
		if ready >= n {
			return nil
		}
		if d.closing() {
			return fmt.Errorf("agent: dispatcher closed while waiting for agents")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("agent: %d/%d agents ready after %v", ready, n, timeout)
		}
		d.ready.Wait()
	}
}

func (d *Dispatcher) acceptLoop() {
	defer d.wg.Done()
	for {
		nc, err := d.ln.Accept()
		if err != nil {
			return // listener closed
		}
		d.wg.Add(1)
		go d.handleConn(nc)
	}
}

// handleConn performs the handshake and dispatches on the peer's role. The
// whole exchange runs under a socket deadline: a peer that connects and goes
// silent (or writes a torn header) cannot pin this goroutine past it.
func (d *Dispatcher) handleConn(nc net.Conn) {
	defer d.wg.Done()
	_ = nc.SetDeadline(time.Now().Add(handshakeTimeout))
	conn, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
	if err != nil {
		d.cfg.logf("dispatcher: rejecting peer %s: %v", nc.RemoteAddr(), err)
		nc.Close()
		return
	}
	m, err := conn.Recv()
	if err != nil {
		conn.Close()
		return
	}
	hello, ok := m.(*wire.Hello)
	if !ok {
		_ = conn.Send(&wire.ErrorMsg{Text: fmt.Sprintf("expected Hello, got %T", m)})
		conn.Close()
		return
	}
	sc := d.cfg.Scenario
	switch {
	case hello.Role != wire.RoleAgent && hello.Role != wire.RoleClient:
		conn.Close()
		return
	case hello.Role == wire.RoleAgent && (hello.Server < 0 || hello.Server >= len(sc.Servers)):
		_ = conn.Send(&wire.ErrorMsg{Text: fmt.Sprintf("server index %d out of range", hello.Server)})
		conn.Close()
		return
	}
	if err := conn.Send(&wire.Welcome{Servers: len(sc.Servers), Users: len(sc.Users), ID: hello.ID}); err != nil {
		conn.Close()
		return
	}
	_ = nc.SetDeadline(time.Time{}) // per-frame write deadlines take over
	queue := agentQueue
	if hello.Role == wire.RoleClient {
		queue = d.cfg.limits.clientQueue
	}
	ob := newOutbox(conn, nc, queue, d.cfg.limits.writeDeadline)
	ob.onTrip = d.cDeadlineTrips.Inc
	ob.onFlush = d.countFlush
	if hello.Role == wire.RoleAgent {
		ac := &agentConn{conn: conn, ob: ob, id: hello.ID, server: hello.Server, pending: map[uint64]*call{}}
		ob.onDead = func(err error) { d.suspectAgent(ac, err) }
		d.serveAgent(ac)
		return
	}
	if buf := d.cfg.limits.writeBuffer; buf > 0 {
		if tc, ok := nc.(*net.TCPConn); ok {
			_ = tc.SetWriteBuffer(buf)
		}
	}
	ob.onDead = func(error) {
		// Frames queued behind the dead writer are shed by definition.
		if n := ob.queued(); n > 0 && !d.closing() {
			d.cClientShed.Add(int64(n))
		}
	}
	d.serveClient(&clientConn{conn: conn, ob: ob})
}

// countFlush records one successful outbox flush: frames_flushed / flushes is
// the frames a write(2) towards a peer carries.
func (d *Dispatcher) countFlush(frames int64) {
	d.cFlushes.Inc()
	d.cFramesFlushed.Add(frames)
}

// closing reports whether dispatcher shutdown has begun: registration
// refuses, and teardown noise stays out of the backpressure counters.
func (d *Dispatcher) closing() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// serveAgent registers the agent, pushes it the current allocation, and
// pumps its message stream until the connection drops. All outbound frames
// go through the agent's outbox, so a stalled agent socket can never wedge
// the ingest loop or an allocation push.
func (d *Dispatcher) serveAgent(ac *agentConn) {
	d.mu.Lock()
	if d.closing() {
		d.mu.Unlock()
		ac.conn.Close()
		return
	}
	if old := (*d.agents.Load())[ac.server]; old != nil {
		old.ob.shut(nil) // a reconnecting agent replaces its predecessor
	}
	d.setAgentLocked(ac.server, ac)
	d.mu.Unlock()
	d.cfg.logf("dispatcher: agent %s registered for server %d", ac.id, ac.server)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		ac.ob.run()
	}()

	// Tell the control plane the server is (back) up, then hand the agent
	// its slice of the live plan.
	d.observeConnectivity()
	d.ingestMu.Lock()
	d.pushLocked(ac, d.plan.Load())
	d.ingestMu.Unlock()

readLoop:
	for {
		m, err := ac.conn.Recv()
		if err != nil {
			break
		}
		switch m := m.(type) {
		case *wire.Telemetry:
			select {
			case d.telemCh <- telemItem{ac, m}:
			default:
				d.cTelemDropped.Inc()
			}
		case *wire.AllocAck:
			ac.mu.Lock()
			first := !ac.acked
			ac.acked = true
			ac.mu.Unlock()
			if first {
				d.mu.Lock()
				d.ready.Broadcast()
				d.mu.Unlock()
			}
		case *wire.InferResult:
			if c := ac.take(m.Seq); c != nil {
				d.suffixDone(c, m, nil)
			}
		case *wire.Heartbeat:
		case *wire.Hello:
			// A second Hello on a live connection is a protocol violation:
			// role and server binding are immutable per connection.
			d.cfg.logf("dispatcher: agent %s sent duplicate Hello; disconnecting", ac.id)
			d.rejectDuplicateHello(ac.ob)
			break readLoop
		case *wire.ErrorMsg:
			d.cfg.logf("dispatcher: agent %s error: %s", ac.id, m.Text)
		default:
			d.cfg.logf("dispatcher: agent %s sent unexpected %T", ac.id, m)
		}
	}
	ac.ob.shut(nil)
	d.onAgentDown(ac)
}

// setAgentLocked publishes a copy of the agent table with server's entry
// replaced (nil removes it) and updates the connected-agents gauge. Caller
// holds mu.
func (d *Dispatcher) setAgentLocked(server int, ac *agentConn) {
	next := maps.Clone(*d.agents.Load())
	delete(next, server)
	if ac != nil {
		next[server] = ac
	}
	d.agents.Store(&next)
	d.gAgents.Set(float64(len(next)))
}

// sendAgent queues one frame for an agent. An agent whose outbox cannot take
// the frame (overflowed queue or dead writer) is marked suspect: the push
// path must never block, and an agent that is not draining is treated
// exactly like one that disconnected.
func (d *Dispatcher) sendAgent(ac *agentConn, m wire.Msg) error {
	if ac.ob.enqueue(m) {
		return nil
	}
	err := ac.ob.deadErr()
	if err == nil {
		err = fmt.Errorf("agent %s outbound queue overflowed (%d frames)", ac.id, agentQueue)
	}
	d.suspectAgent(ac, err)
	return fmt.Errorf("agent %s not writable: %w", ac.id, err)
}

// suspectAgent handles an agent whose socket stopped accepting frames: the
// connection is torn down, which unblocks its read loop and routes the loss
// through onAgentDown — the same health-sample + evacuation machinery a
// crashed agent triggers. Idempotent per connection.
func (d *Dispatcher) suspectAgent(ac *agentConn, err error) {
	ac.suspectOnce.Do(func() {
		if d.closing() {
			return
		}
		d.cAgentSuspect.Inc()
		d.cfg.logf("dispatcher: agent %s (server %d) marked suspect: %v", ac.id, ac.server, err)
	})
	ac.ob.shut(err)
}

// onAgentDown deregisters a lost agent, aborts its in-flight work, and
// routes the disconnect through the fault machinery: a health sample whose
// cheap-refresh path runs the dispatcher's evacuation/fallback. The agent
// leaves the table before its calls fail, so their retries do not find it.
func (d *Dispatcher) onAgentDown(ac *agentConn) {
	ac.conn.Close()
	d.mu.Lock()
	replaced := (*d.agents.Load())[ac.server] != ac
	if !replaced {
		d.setAgentLocked(ac.server, nil)
	}
	d.mu.Unlock()
	ac.mu.Lock()
	pending := ac.pending
	ac.pending = map[uint64]*call{}
	ac.mu.Unlock()
	for _, c := range pending {
		c.timer.Stop()
		d.suffixDone(c, nil, fmt.Errorf("agent %s disconnected mid-request", ac.id))
	}
	if replaced || d.closing() {
		return
	}
	d.cfg.logf("dispatcher: agent %s (server %d) disconnected", ac.id, ac.server)
	d.observeConnectivity()
}

// observeConnectivity folds the agent table into the control plane as a
// health sample whenever it differs from the runtime's view of server health.
// Servers with no agent yet (cluster startup) stay optimistically up until
// their first agent appears and then vanishes. A connection that comes or goes
// is the dispatcher's own observation, not the agent's telemetry, so the
// sample carries connectivitySource: a muted agent cannot mute its own loss.
func (d *Dispatcher) observeConnectivity() {
	d.ingestMu.Lock()
	defer d.ingestMu.Unlock()
	health := make([]bool, len(d.cfg.Scenario.Servers))
	d.mu.Lock()
	agents := *d.agents.Load()
	for s := range health {
		_, connected := agents[s]
		if connected {
			d.ever[s] = true
		}
		health[s] = connected || !d.ever[s]
	}
	d.mu.Unlock()
	for s, up := range health {
		if d.rt.Up(s) != up {
			d.ingestLocked(telemetry.Sample{Health: health, Source: connectivitySource})
			return
		}
	}
}

// onTelemetry folds one agent's link observation into the runtime. A rate
// within 1 % of the runtime's last-known rate for the server — its last
// valid observation, or the planning rate before any — is coalesced away:
// it carries no new information for the planner, and on small machines
// running every no-op sample through the control plane's refresh path would
// steal the CPU the data plane needs (the agent's transfer physics never
// depend on ingestion — see userSlot.condUplinkBits).
func (d *Dispatcher) onTelemetry(ac *agentConn, m *wire.Telemetry) {
	d.ingestMu.Lock()
	defer d.ingestMu.Unlock()
	if last := d.rt.Rate(ac.server); m.UplinkBps > 0 && math.Abs(m.UplinkBps-last)/last < 0.01 {
		d.cTelemCoalesced.Inc()
		return
	}
	uplinks := make([]float64, len(d.cfg.Scenario.Servers))
	uplinks[ac.server] = m.UplinkBps
	d.ingestLocked(telemetry.Sample{Uplinks: uplinks, Source: telemetry.SourceID(ac.server)})
}

// ingestLocked stamps the sample with the dispatcher's model clock, held
// monotone against the runtime's, runs it through the serve runtime, and
// publishes the resulting plan. Caller holds ingestMu.
func (d *Dispatcher) ingestLocked(s telemetry.Sample) {
	s.Time = max(d.clock.Now(), d.rt.Clock())
	plan, err := d.rt.Ingest(s)
	if err != nil {
		d.cfg.logf("dispatcher: sample from %s rejected: %v", s.Source, err)
		return
	}
	d.publishLocked(plan)
}

// publishLocked makes plan the routing plan and pushes it to the agents
// whose slice it changes. The runtime returns a fresh plan pointer on every
// cheap refresh, but an agent's installed physics depend only on its users'
// decisions (the pushed rate estimate cancels out of the bit count), so
// re-pushing an unchanged slice would just burn agent CPU on surgery
// re-evaluation. Caller holds ingestMu.
func (d *Dispatcher) publishLocked(plan *joint.Plan) {
	prev := d.plan.Swap(plan)
	if plan == prev {
		return
	}
	dirty := changedServers(prev, plan, len(d.cfg.Scenario.Servers))
	for _, ac := range *d.agents.Load() {
		if dirty[ac.server] {
			d.pushLocked(ac, plan)
		}
	}
}

// sameEntry reports whether two decisions put the same allocation entry on
// the wire: exactly the fields pushLocked sends.
func sameEntry(a, b *joint.Decision) bool {
	return a.Server == b.Server && a.Plan.Partition == b.Plan.Partition &&
		a.Plan.Theta == b.Plan.Theta && slices.Equal(a.Plan.Exits, b.Plan.Exits) &&
		a.ComputeShare == b.ComputeShare && a.BandwidthShare == b.BandwidthShare
}

// changedServers marks the servers whose allocation slice differs between
// two plans: a changed decision touches the server it left and the one it
// joined.
func changedServers(prev, next *joint.Plan, servers int) []bool {
	dirty := make([]bool, servers)
	for i := range next.Decisions {
		a, b := &prev.Decisions[i], &next.Decisions[i]
		if sameEntry(a, b) {
			continue
		}
		for _, s := range [2]int{a.Server, b.Server} {
			if s >= 0 {
				dirty[s] = true
			}
		}
	}
	return dirty
}

// pushLocked sends one agent its slice of the plan. Caller holds ingestMu
// (epoch ordering).
func (d *Dispatcher) pushLocked(ac *agentConn, plan *joint.Plan) {
	d.epoch++
	sc := d.cfg.Scenario
	var entries []wire.AllocEntry
	for ui := range plan.Decisions {
		dec := &plan.Decisions[ui]
		if dec.Server != ac.server || dec.ComputeShare <= 0 {
			continue
		}
		entries = append(entries, wire.AllocEntry{
			User:           ui,
			Partition:      dec.Plan.Partition,
			Theta:          dec.Plan.Theta,
			Exits:          dec.Plan.Exits,
			ComputeShare:   dec.ComputeShare,
			BandwidthShare: dec.BandwidthShare,
		})
	}
	alloc := &wire.Allocation{
		Epoch:     d.epoch,
		UplinkBps: d.rt.Rate(ac.server),
		RTT:       sc.Servers[ac.server].RTT,
		Entries:   entries,
	}
	// A push that cannot be queued marks the agent suspect inside sendAgent —
	// the connection is torn down and the loss routes through onAgentDown's
	// evacuation machinery, never silently dropped.
	if err := d.sendAgent(ac, alloc); err != nil {
		d.cfg.logf("dispatcher: pushing allocation to %s: %v", ac.id, err)
		return
	}
	d.cPushes.Inc()
}

// serveClient pumps one client connection: each Request is started on the
// read loop (execute) and its Response, once its events have run, delivered
// through the client's bounded outbox, which is shut only after the last.
// A client that stops reading can therefore stall only its own writer
// goroutine; once its queue overflows, responses are shed
// (dataplane.client_shed) and, past the strike limit, the connection is
// dropped (dataplane.clients_dropped).
func (d *Dispatcher) serveClient(cc *clientConn) {
	conn := cc.conn
	d.mu.Lock()
	if d.closing() {
		d.mu.Unlock()
		conn.Close()
		return
	}
	d.clients[conn] = struct{}{}
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.clients, conn)
		d.mu.Unlock()
	}()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		cc.ob.run()
	}()
readLoop:
	for {
		m, err := conn.Recv()
		if err != nil {
			break
		}
		switch m := m.(type) {
		case *wire.Request:
			d.execute(cc, m)
		case *wire.Hello:
			d.cfg.logf("dispatcher: client sent duplicate Hello; disconnecting")
			d.rejectDuplicateHello(cc.ob)
			break readLoop
		case *wire.Heartbeat:
		default:
			d.cfg.logf("dispatcher: client sent unexpected %T", m)
		}
	}
	cc.inflight.Wait()
	cc.ob.shut(nil)
	conn.Close()
}

// rejectDuplicateHello tells a peer, synchronously but deadline-guarded, why
// it is about to be disconnected. Role and server binding are immutable per
// connection; a second Hello is a protocol violation. The direct Send is
// safe alongside the outbox writer (wire.Conn combines concurrent writers)
// and cannot wedge the read loop: the write deadline bounds it.
func (d *Dispatcher) rejectDuplicateHello(ob *outbox) {
	_ = ob.nc.SetWriteDeadline(time.Now().Add(d.cfg.limits.writeDeadline))
	_ = ob.conn.Send(&wire.ErrorMsg{Text: "duplicate Hello on a live connection"})
}

// deliver queues c's response on the client's outbox, applying the shed /
// strike / disconnect policy on overflow. It is the end of every call.
func (d *Dispatcher) deliver(c *call) {
	cc := c.cc
	defer cc.inflight.Done()
	if cc.ob.enqueue(&c.resp) {
		return
	}
	if d.closing() {
		return // shutdown teardown, not backpressure
	}
	d.cClientShed.Inc()
	if cc.strikes.Add(1) >= int64(d.cfg.limits.clientStrikes) && cc.dropped.CompareAndSwap(false, true) {
		d.cClientsDropped.Inc()
		d.cfg.logf("dispatcher: dropping client after %d shed responses", cc.strikes.Load())
		cc.ob.shut(fmt.Errorf("client exceeded %d shed responses", d.cfg.limits.clientStrikes))
	}
}

// execute starts one end-to-end request against the live plan: the
// simulated device prefix ends at a model instant counted from the arrival,
// where a Bernoulli(CrossProb) draw decides whether this task crosses the
// partition and — when it does — the suffix is handed off to the assigned
// agent. The sampled stage times are conditional expectations at the plan's
// shares, so the mean observed latency equals the plan's expected latency
// exactly.
func (d *Dispatcher) execute(cc *clientConn, req *wire.Request) {
	arrive := d.clock.Now()
	d.cRequests.Inc()
	cc.inflight.Add(1)
	c := &call{cc: cc, resp: wire.Response{Seq: req.Seq, User: req.User, Server: -1}}
	if req.User < 0 || req.User >= len(d.cfg.Scenario.Users) {
		d.cFailed.Inc()
		c.resp.Status = wire.StatusRejected
		d.deliver(c)
		return
	}
	c.dec = &d.plan.Load().Decisions[req.User]
	c.resp.DeviceSec = c.dec.Eval.DeviceSec
	d.clock.At(arrive+c.resp.DeviceSec, func() {
		if dec := c.dec; dec.Server >= 0 && dec.Eval.CrossProb > 0 &&
			crossDraw(d.cfg.Seed, c.resp.User, c.resp.Seq) < dec.Eval.CrossProb {
			d.remoteSuffix(c)
		} else {
			d.finishLocal(c)
		}
	})
}

// finishLocal answers a call whose task never crossed the partition.
func (d *Dispatcher) finishLocal(c *call) {
	c.resp.TotalSec = c.resp.DeviceSec
	d.cOK.Inc()
	d.deliver(c)
}

// remoteSuffix hands c's device-prefix result off to its decision's agent.
// The agent's InferResult, the timeout, or the agent's teardown continues c
// in suffixDone; so does a handoff that fails here.
func (d *Dispatcher) remoteSuffix(c *call) {
	dec := c.dec
	ac := (*d.agents.Load())[dec.Server]
	if ac == nil {
		d.suffixDone(c, nil, fmt.Errorf("no agent connected for server %d", dec.Server))
		return
	}
	seq := d.seq.Add(1)
	ac.mu.Lock()
	ac.pending[seq] = c
	c.timer = time.AfterFunc(d.cfg.limits.inferTimeout, func() {
		if ac.take(seq) != nil {
			d.suffixDone(c, nil, fmt.Errorf("agent %s timed out after %v", ac.id, d.cfg.limits.inferTimeout))
		}
	})
	ac.mu.Unlock()
	infer := &wire.Infer{Seq: seq, User: c.resp.User, DeviceSec: dec.Eval.DeviceSec, Payload: activationPayload(dec)}
	if err := d.sendAgent(ac, infer); err != nil && ac.take(seq) != nil {
		d.suffixDone(c, nil, fmt.Errorf("sending to agent %s: %w", ac.id, err))
	}
}

// suffixDone continues c with its agent's answer, or with err when there was
// none. A failed handoff is retried once against the refreshed plan — it may
// have shifted under the request (evacuation) — before the call fails.
func (d *Dispatcher) suffixDone(c *call, res *wire.InferResult, err error) {
	if err == nil && res.Status != wire.StatusOK {
		err = fmt.Errorf("agent for server %d returned status %d", c.dec.Server, res.Status)
	}
	if err != nil && !c.retried {
		c.retried = true
		d.cRetries.Inc()
		c.dec = &d.plan.Load().Decisions[c.resp.User]
		if c.dec.Server < 0 || c.dec.Eval.CrossProb <= 0 {
			d.finishLocal(c) // evacuated to device-only: the task completes locally
			return
		}
		d.remoteSuffix(c)
		return
	}
	resp := &c.resp
	if err != nil {
		d.cfg.logf("dispatcher: request %d (user %d): %v", resp.Seq, resp.User, err)
		d.cFailed.Inc()
		resp.Status, resp.Server = wire.StatusFailed, c.dec.Server
		d.deliver(c)
		return
	}
	resp.Server = c.dec.Server
	resp.UplinkSec = d.cfg.Scenario.Servers[resp.Server].RTT + res.UplinkSec
	resp.QueueSec = res.QueueSec
	resp.ServerSec = res.ServerSec
	resp.TotalSec = resp.DeviceSec + resp.UplinkSec + resp.QueueSec + resp.ServerSec
	d.cOK.Inc()
	d.deliver(c)
}

// activationPayload builds the stand-in device-prefix blob: sized like the
// (compressed) activation crossing the partition, capped for the loopback
// plane.
func activationPayload(dec *joint.Decision) []byte {
	m := dec.Plan.Model
	if m == nil || dec.Plan.Partition >= m.NumUnits() {
		return nil
	}
	n := int(m.CutBytes(dec.Plan.Partition))
	if n > payloadCap {
		n = payloadCap
	}
	if n <= 0 {
		return nil
	}
	return zeroActivation[:n]
}

// crossDraw is the deterministic partition-crossing sampler: a splitmix64
// hash of (seed, user, seq) mapped to [0, 1).
func crossDraw(seed int64, user int, seq uint64) float64 {
	x := uint64(seed) ^ (uint64(user)+1)*0x9e3779b97f4a7c15 ^ (seq+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
