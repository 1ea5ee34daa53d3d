package agent

// The backpressure stress/conformance suite: misbehaving clients — stalled
// readers, slow readers, byte-at-a-time readers, mid-frame disconnects,
// reconnect storms — against a live dispatcher, asserting that healthy
// clients' throughput and the telemetry→replan loop stay unaffected, and
// that the dispatcher's shed/strike/disconnect policy fires where it should.
// Everything here runs in `make test-race`.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgesurgeon/internal/client"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/serve"
	"edgesurgeon/internal/wire"
)

// stressPlane is testPlane with a tunable DispatcherConfig: small queues,
// short write deadlines, and shrunken client socket buffers so a stalled
// reader exerts pressure within a few frames instead of a few hundred KB.
func stressPlane(t *testing.T, sc *joint.Scenario, mutate func(*DispatcherConfig)) (*Dispatcher, *serve.Runtime) {
	t.Helper()
	rt, err := serve.New(serve.Config{Scenario: sc, Policy: serve.Hysteresis()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DispatcherConfig{
		Scenario: sc, Runtime: rt, TimeScale: 0.001, Seed: 42,
		limits: limits{inferTimeout: 10 * time.Second},
		Logf:   t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := StartDispatcher(cfg)
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
	return d, rt
}

// stallClient handshakes, fires a request burst, and never reads again — the
// canonical stalled reader. Its own receive buffer is shrunk so the
// dispatcher's writes back up after a handful of frames.
func stallClient(t *testing.T, addr string, burst, users int) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(2048)
	}
	conn, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Hello{Role: wire.RoleClient, ID: "stalled"}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if err := conn.Send(&wire.Request{Seq: uint64(i + 1), User: i % users}); err != nil {
			break // the dispatcher may already have dropped us — that is the point
		}
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// driveHealthy runs workers closed-loop clients for perWorker requests each
// and returns the wall-clock latencies. Every request must complete OK.
func driveHealthy(t *testing.T, addr string, workers, perWorker, users int) []float64 {
	t.Helper()
	var (
		mu   sync.Mutex
		lats []float64
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Config{
				ID: fmt.Sprintf("healthy-%d", w), Window: 1, CallTimeout: 15 * time.Second,
			})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < perWorker; i++ {
				t0 := time.Now()
				if _, err := c.Do(context.Background(), (w+i)%users); err != nil {
					errCh <- fmt.Errorf("worker %d request %d: %w", w, i, err)
					return
				}
				mu.Lock()
				lats = append(lats, time.Since(t0).Seconds())
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("healthy client failed: %v", err)
	}
	sort.Float64s(lats)
	return lats
}

// TestStalledClientShedsWithoutCollateral is the headline stress test: one
// stalled reader with a large request burst must get its responses shed and
// its connection dropped, while (a) concurrently driven healthy clients
// complete every request with bounded p99 and (b) the telemetry→ingest loop
// keeps turning.
func TestStalledClientShedsWithoutCollateral(t *testing.T) {
	sc := testScenario(t, 4, 40)
	d, rt := stressPlane(t, sc, func(cfg *DispatcherConfig) {
		cfg.limits.writeDeadline = 200 * time.Millisecond
		cfg.limits.clientQueue = 8
		cfg.limits.clientStrikes = 4
		cfg.limits.writeBuffer = 2048
	})
	reg := rt.Metrics()
	telemProgress := func() int64 {
		return reg.Counter("dataplane.telemetry_coalesced").Value() +
			reg.Counter("dataplane.telemetry_dropped").Value() + int64(rt.Seq())
	}
	telemBefore := telemProgress()

	stallClient(t, d.Addr(), 300, len(sc.Users))

	// Healthy traffic alongside the stall: all of it must complete.
	lats := driveHealthy(t, d.Addr(), 3, 25, len(sc.Users))
	p99 := lats[int(0.99*float64(len(lats)-1))]
	if p99 > 5.0 {
		t.Fatalf("healthy p99 %.2fs under a stalled client; backpressure is leaking", p99)
	}

	// The stalled client's responses were shed, and past the strike limit it
	// was disconnected. Both observable on the metrics registry (/metrics).
	deadline := time.Now().Add(15 * time.Second)
	for reg.Counter("dataplane.clients_dropped").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled client never dropped: shed=%d trips=%d",
				reg.Counter("dataplane.client_shed").Value(),
				reg.Counter("dataplane.write_deadline_trips").Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if shed := reg.Counter("dataplane.client_shed").Value(); shed == 0 {
		t.Fatal("client dropped without a single shed being counted")
	}

	// Telemetry kept flowing through the read loops and the ingest loop the
	// whole time (coalesced-away samples still prove liveness).
	deadline = time.Now().Add(10 * time.Second)
	for telemProgress() <= telemBefore {
		if time.Now().After(deadline) {
			t.Fatal("telemetry loop made no progress while a client was stalled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("shed=%d trips=%d dropped=%d healthy p99=%.1fms",
		reg.Counter("dataplane.client_shed").Value(),
		reg.Counter("dataplane.write_deadline_trips").Value(),
		reg.Counter("dataplane.clients_dropped").Value(), p99*1e3)
}

// TestSlowReaderKeepsAllResponses: a reader that is slow but not stopped
// must receive every response — sheds are for stalls, not for pacing.
func TestSlowReaderKeepsAllResponses(t *testing.T) {
	sc := testScenario(t, 4, 40)
	d, rt := stressPlane(t, sc, nil) // production queue/deadline defaults
	conn := dialClient(t, d.Addr())

	const n = 30
	go func() {
		for i := 0; i < n; i++ {
			if err := conn.Send(&wire.Request{Seq: uint64(i + 1), User: i % len(sc.Users)}); err != nil {
				return
			}
		}
	}()
	got := 0
	for got < n {
		m, err := conn.Recv()
		if err != nil {
			t.Fatalf("slow reader lost its connection after %d/%d responses: %v", got, n, err)
		}
		if resp, ok := m.(*wire.Response); ok {
			if resp.Status != wire.StatusOK {
				t.Fatalf("response %d status %d", resp.Seq, resp.Status)
			}
			got++
			time.Sleep(3 * time.Millisecond) // slow, not stalled
		}
	}
	if shed := rt.Metrics().Counter("dataplane.client_shed").Value(); shed != 0 {
		t.Fatalf("%d responses shed for a merely slow reader", shed)
	}
}

// oneByteReader delivers at most one byte per Read call — the pathological
// trickle peer.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// TestByteAtATimeReader: frames must survive a client that drains its socket
// a single byte per syscall.
func TestByteAtATimeReader(t *testing.T) {
	sc := testScenario(t, 2, 40)
	d, _ := stressPlane(t, sc, nil)

	nc, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn, err := wire.NewConn(bufio.NewReader(oneByteReader{nc}), nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Hello{Role: wire.RoleClient, ID: "trickle"}); err != nil {
		t.Fatal(err)
	}
	if m, err := conn.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*wire.Welcome); !ok {
		t.Fatalf("expected Welcome, got %T", m)
	}
	const n = 8
	go func() {
		for i := 0; i < n; i++ {
			if err := conn.Send(&wire.Request{Seq: uint64(i + 1), User: i % len(sc.Users)}); err != nil {
				return
			}
		}
	}()
	for got := 0; got < n; {
		m, err := conn.Recv()
		if err != nil {
			t.Fatalf("trickle reader failed after %d/%d: %v", got, n, err)
		}
		if resp, ok := m.(*wire.Response); ok {
			if resp.Status != wire.StatusOK {
				t.Fatalf("response %d status %d", resp.Seq, resp.Status)
			}
			got++
		}
	}
}

// TestMidFrameDisconnect: a client that dies halfway through writing a frame
// must be cleaned up without poisoning the plane for anyone else.
func TestMidFrameDisconnect(t *testing.T) {
	sc := testScenario(t, 2, 40)
	d, _ := stressPlane(t, sc, nil)

	nc, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Hello{Role: wire.RoleClient, ID: "torn"}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	// A frame header promising 100 payload bytes, then 3 bytes, then death.
	if _, err := nc.Write([]byte{100, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	nc.Close()

	// The plane keeps serving well-behaved clients.
	c, err := client.Dial(d.Addr(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(context.Background(), 0); err != nil {
		t.Fatalf("request after a mid-frame disconnect: %v", err)
	}
}

// TestReconnectStorm: rapid connect/use/abandon cycles — clean closes, abrupt
// closes, and handshake-less closes interleaved — must leave the dispatcher
// fully serviceable.
func TestReconnectStorm(t *testing.T) {
	sc := testScenario(t, 2, 40)
	d, _ := stressPlane(t, sc, nil)

	for i := 0; i < 24; i++ {
		switch i % 3 {
		case 0: // polite client: two calls, clean close
			c, err := client.Dial(d.Addr(), client.Config{CallTimeout: 10 * time.Second})
			if err != nil {
				t.Fatalf("storm dial %d: %v", i, err)
			}
			for j := 0; j < 2; j++ {
				if _, err := c.Do(context.Background(), j%len(sc.Users)); err != nil {
					t.Fatalf("storm call %d.%d: %v", i, j, err)
				}
			}
			c.Close()
		case 1: // rude client: handshake, one request, vanish without reading
			nc, err := net.Dial("tcp", d.Addr())
			if err != nil {
				t.Fatalf("storm dial %d: %v", i, err)
			}
			conn, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
			if err != nil {
				t.Fatalf("storm handshake %d: %v", i, err)
			}
			conn.Send(&wire.Hello{Role: wire.RoleClient, ID: "rude"})
			conn.Recv()
			conn.Send(&wire.Request{Seq: 1, User: 0})
			nc.Close()
		case 2: // silent peer: TCP connect, no handshake, gone
			nc, err := net.Dial("tcp", d.Addr())
			if err != nil {
				t.Fatalf("storm dial %d: %v", i, err)
			}
			nc.Close()
		}
	}

	lats := driveHealthy(t, d.Addr(), 2, 10, len(sc.Users))
	if len(lats) != 20 {
		t.Fatalf("post-storm drive completed %d/20 requests", len(lats))
	}
}

// TestCloseWithIdleAndMidRequestClients: Close must return promptly with a
// mix of idle clients (parked in their own Recv) and clients with requests
// in flight. This is the lifecycle regression for the outbox writer join.
func TestCloseWithIdleAndMidRequestClients(t *testing.T) {
	sc := testScenario(t, 4, 40)
	rt, err := serve.New(serve.Config{Scenario: sc, Policy: serve.Hysteresis()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	d, err := StartDispatcher(DispatcherConfig{
		Scenario: sc, Runtime: rt, TimeScale: 0.001, Seed: 42,
		limits: limits{inferTimeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
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

	// N idle clients: handshaken, then parked.
	for i := 0; i < 4; i++ {
		dialClient(t, d.Addr())
	}
	// M clients hammering requests when Close lands.
	stop := make(chan struct{})
	var busy sync.WaitGroup
	for i := 0; i < 3; i++ {
		c, err := client.Dial(d.Addr(), client.Config{CallTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		busy.Add(1)
		go func() {
			defer busy.Done()
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Do(context.Background(), 0) // errors expected once Close lands
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let requests get in flight

	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("dispatcher Close deadlocked with idle + mid-request clients")
	}
	close(stop)
	busy.Wait()
}

// TestAgentDeathMidRequestTypedError: killing an agent while client requests
// are in flight must never hang a call — every Do returns within its
// deadline, and failures carry a typed client error.
func TestAgentDeathMidRequestTypedError(t *testing.T) {
	sc := testScenario(t, 4, 40)
	rt, err := serve.New(serve.Config{Scenario: sc, Policy: serve.Hysteresis()})
	if err != nil {
		t.Fatal(err)
	}
	d, err := StartDispatcher(DispatcherConfig{
		Scenario: sc, Runtime: rt, TimeScale: 0.001, Seed: 7,
		limits: limits{inferTimeout: 2 * time.Second},
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

	c, err := client.Dial(d.Addr(), client.Config{CallTimeout: 8 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Requests in flight while both agents die.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	hung := make(chan string, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				_, err := c.Do(context.Background(), (w+i)%len(sc.Users))
				if took := time.Since(t0); took > 9*time.Second {
					hung <- fmt.Sprintf("worker %d call took %v", w, took)
					return
				}
				if err != nil {
					var se *client.StatusError
					var ce *client.CallError
					var de *client.DisconnectError
					if !errors.As(err, &se) && !errors.As(err, &ce) && !errors.As(err, &de) && !errors.Is(err, client.ErrClosed) {
						hung <- fmt.Sprintf("worker %d got untyped error %T: %v", w, err, err)
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	for _, cancel := range ctxes {
		cancel() // all agents die with requests in flight
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("a client call hung after agent death")
	}
	close(hung)
	for msg := range hung {
		t.Fatal(msg)
	}
}

// TestDuplicateHelloRejected: a second Hello on a live connection — client or
// agent role — is a protocol violation answered with ErrorMsg + disconnect.
func TestDuplicateHelloRejected(t *testing.T) {
	sc := testScenario(t, 2, 40)
	d, _ := stressPlane(t, sc, nil)

	expectReject := func(t *testing.T, conn *wire.Conn) {
		t.Helper()
		if err := conn.Send(&wire.Hello{Role: wire.RoleClient, ID: "again"}); err != nil {
			t.Fatalf("sending duplicate hello: %v", err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatal("connection survived a duplicate Hello")
			}
			m, err := conn.Recv()
			if err != nil {
				return // disconnected — acceptable terminal state
			}
			if em, ok := m.(*wire.ErrorMsg); ok {
				t.Logf("rejected with: %s", em.Text)
				if _, err := conn.Recv(); err == nil {
					// Drain until the disconnect lands.
					continue
				}
				return
			}
			// Responses to earlier traffic may interleave; keep reading.
		}
	}

	t.Run("client role", func(t *testing.T) {
		conn := dialClient(t, d.Addr())
		expectReject(t, conn)
	})
	t.Run("agent role", func(t *testing.T) {
		nc, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		conn, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
		if err != nil {
			t.Fatal(err)
		}
		// Register as a (third) agent for server 1 — replaces none of the
		// live ones' servers? It does replace server 1's agent; use the real
		// handshake then violate the protocol.
		if err := conn.Send(&wire.Hello{Role: wire.RoleAgent, ID: "dup-agent", Server: 1}); err != nil {
			t.Fatal(err)
		}
		if m, err := conn.Recv(); err != nil {
			t.Fatal(err)
		} else if _, ok := m.(*wire.Welcome); !ok {
			t.Fatalf("expected Welcome, got %T", m)
		}
		expectReject(t, conn)
	})
}

// writeCounter counts the Writes that reach the socket.
type writeCounter struct {
	w io.Writer
	n atomic.Int64
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.w.Write(p)
}

// pipeOutbox returns an outbox over one end of a net.Pipe, the peer's end,
// and the count of Writes the outbox side makes from here on, header exchange
// done. The pipe is synchronous, so the peer reads our header first (both
// sides writing first would deadlock).
func pipeOutbox(t testing.TB, queue int, deadline time.Duration) (*outbox, net.Conn, *atomic.Int64) {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	go func() {
		if err := wire.ReadHeader(bufio.NewReader(c2)); err != nil {
			return
		}
		_ = wire.WriteHeader(c2)
	}()
	w := &writeCounter{w: c1}
	conn, err := wire.NewConn(bufio.NewReader(c1), w, c1)
	if err != nil {
		t.Fatal(err)
	}
	w.n.Store(0) // the header was a Write too
	return newOutbox(conn, c1, queue, deadline), c2, &w.n
}

// TestOutboxOverflowAndDeadline unit-tests the primitive under everything
// above: a full queue refuses enqueue without blocking, and a batched flush
// that misses its deadline trips the counter hook once, kills the connection
// once, and leaves queued() equal to the frames it abandoned.
func TestOutboxOverflowAndDeadline(t *testing.T) {
	// The peer stalls: it never reads a frame.
	ob, _, _ := pipeOutbox(t, 2, 50*time.Millisecond)
	var trips, deaths atomic.Int64
	died := make(chan error, 1)
	ob.onTrip = func() { trips.Add(1) }
	ob.onDead = func(err error) { deaths.Add(1); died <- err }

	// Nobody reads the pipe: the queue takes 2 frames, the third is refused.
	for i := 0; i < 2; i++ {
		if !ob.enqueue(&wire.Heartbeat{Time: float64(i)}) {
			t.Fatalf("enqueue %d refused with a non-full queue", i)
		}
	}
	if ob.enqueue(&wire.Heartbeat{Time: 9}) {
		t.Fatal("enqueue accepted past the queue bound")
	}

	done := make(chan struct{})
	go func() { ob.run(); close(done) }()
	select {
	case err := <-died:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("outbox died with %v, want a timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write deadline never tripped against a stalled pipe")
	}
	<-done
	ob.shut(errors.New("late")) // a second shut must not fire onDead again
	if trips.Load() != 1 || deaths.Load() != 1 {
		t.Fatalf("one missed flush fired onTrip %d times and onDead %d times, want once each", trips.Load(), deaths.Load())
	}
	if got := ob.queued(); got != 2 {
		t.Fatalf("queued() = %d after the batch of 2 was abandoned, want 2", got)
	}
	if ob.enqueue(&wire.Heartbeat{Time: 10}) {
		t.Fatal("enqueue accepted on a dead outbox")
	}
}

// TestOutboxBatchesQueuedFrames: frames queued while the writer was away go
// out in one flush, in order; a batch stops growing at wire.BatchBytes; and
// queued() returns to zero once they are written. Flushes, not Writes, are
// counted: a batch that carries 100 KiB blobs is one gathered write on a
// socket, but reaches a pipe one piece per Write.
func TestOutboxBatchesQueuedFrames(t *testing.T) {
	ob, peer, _ := pipeOutbox(t, 16, 5*time.Second)
	flushed := make(chan int64, 16)
	ob.onFlush = func(frames int64) { flushed <- frames }
	// Ten small frames, then five of 100 KiB: the first batch closes on the
	// frame that takes it past BatchBytes (the third big one), the second
	// carries the other two.
	var want []wire.Msg
	for i := 0; i < 10; i++ {
		want = append(want, &wire.Heartbeat{Time: float64(i)})
	}
	for i := 0; i < 5; i++ {
		want = append(want, &wire.Infer{Seq: uint64(i), Payload: make([]byte, 100<<10)})
	}
	for _, m := range want {
		if !ob.enqueue(m) {
			t.Fatalf("enqueue of %T refused", m)
		}
	}
	if got := ob.queued(); got != len(want) {
		t.Fatalf("queued() = %d before the writer started, want %d", got, len(want))
	}
	go ob.run()
	defer ob.shut(nil)
	r := bufio.NewReader(peer)
	for i, m := range want {
		payload, err := wire.ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := wire.Decode(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("frame %d arrived as %T, want %T in queue order", i, got, m)
		}
	}
	for i, want := range []int64{13, 2} {
		select {
		case got := <-flushed:
			if got != want {
				t.Fatalf("flush %d carried %d frames, want %d", i+1, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("15 queued frames took %d flushes, want 2 (one per batch)", i)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ob.queued() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("queued() = %d after every frame was read", ob.queued())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOutboxBatchesABurst: producers that are runnable together share a
// Write. On one P the writer takes the first response, yields, and finds the
// other 15 queued when it comes back: 1 Write. Without the yield it was 16:
// each enqueue woke the writer, which ran — and wrote — before the next
// producer did.
func TestOutboxBatchesABurst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const producers = 16
	ob, peer, writes := pipeOutbox(t, producers, 5*time.Second)
	go ob.run()
	defer ob.shut(nil)
	r := bufio.NewReader(peer)
	for trial := 1; ; trial++ {
		before := writes.Load()
		for p := 0; p < producers; p++ {
			go func(p int) {
				if !ob.enqueue(&wire.Response{Seq: uint64(p), User: p}) {
					t.Errorf("enqueue %d refused", p)
				}
			}(p)
		}
		for i := 0; i < producers; i++ {
			if _, err := wire.ReadFrame(r); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); ob.queued() != 0; {
			if time.Now().After(deadline) {
				t.Fatalf("queued() = %d after every frame was read", ob.queued())
			}
			time.Sleep(time.Millisecond)
		}
		// As in wire's TestSendersShareAWrite: a trial that straddles one of
		// the scheduler's every-61st-pass looks at the global run queue
		// brings the writer back early, 2 Writes; the next trial cannot.
		n := writes.Load() - before
		if n == 1 {
			return
		}
		if n > 2 || trial == 3 {
			t.Fatalf("trial %d: %d responses took %d Writes, want 1", trial, producers, n)
		}
	}
}

// BenchmarkOutboxDrain: enqueue → batched flush → peer read on net.Pipe, small
// frames, the producer a queue ahead of the writer.
func BenchmarkOutboxDrain(b *testing.B) {
	ob, peer, writes := pipeOutbox(b, 64, 5*time.Second)
	go ob.run()
	defer ob.shut(nil)
	read := make(chan int)
	go func() {
		r := bufio.NewReader(peer)
		n := 0
		for ; n < b.N; n++ {
			if _, err := wire.ReadFrame(r); err != nil {
				break
			}
		}
		read <- n
	}()
	resp := &wire.Response{Seq: 123456, User: 37, Server: 1, DeviceSec: 0.01, UplinkSec: 0.02, ServerSec: 0.005, TotalSec: 0.035}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !ob.enqueue(resp) {
			runtime.Gosched() // queue full: let the writer run
		}
	}
	if n := <-read; n != b.N {
		b.Fatalf("peer read %d of %d frames", n, b.N)
	}
	b.ReportMetric(float64(b.N)/float64(writes.Load()), "frames/write")
}

// TestOneFramePerFlushWhenSequential pins the flush accounting at its
// floor: sequential calls on one client with Window 1 leave each dispatcher
// outbox one frame to write at a time (the client's response, and for a
// crossing call the agent's Infer before it), so dataplane.frames_flushed
// and dataplane.flushes must grow by the same count.
func TestOneFramePerFlushWhenSequential(t *testing.T) {
	const calls = 40
	sc := testScenario(t, 4, 40)
	d, rt, _ := testPlane(t, sc, serve.NeverReplan())
	c, err := client.Dial(d.Addr(), client.Config{ID: "sequential", Window: 1, CallTimeout: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := rt.Metrics()
	flushes, frames := reg.Counter("dataplane.flushes"), reg.Counter("dataplane.frames_flushed")
	flushes0, frames0 := flushes.Value(), frames.Value()
	crossed := 0
	for i := 0; i < calls; i++ {
		resp, err := c.Do(context.Background(), i%len(sc.Users))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.Server >= 0 {
			crossed++
		}
	}
	// A flush is counted after its write, and frames after flushes, so once
	// frames covers every response and Infer, every flush is counted too.
	waitFor(t, "the calls' frames to be counted", func() bool { return frames.Value()-frames0 >= int64(calls+crossed) })
	if dl, df := flushes.Value()-flushes0, frames.Value()-frames0; dl != df {
		t.Errorf("%d frames over %d flushes (%d calls, %d crossed), want one frame per flush", df, dl, calls, crossed)
	}
	if crossed == 0 {
		t.Error("no call crossed to an agent; the agent outbox was not exercised")
	}
}

// stallAgent registers a raw-wire stand-in agent for server: it completes the
// handshake, acknowledges the first allocation push so the readiness barrier
// counts it, and never reads again. Its receive buffer is shrunk so the
// dispatcher's writes back up after a few frames.
func stallAgent(t *testing.T, addr string, server int) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(2048)
	}
	conn, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Hello{Role: wire.RoleAgent, Server: server, ID: "stalled"}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // Welcome
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	alloc, ok := m.(*wire.Allocation)
	if !ok {
		t.Fatalf("stand-in agent expected an Allocation, got %T", m)
	}
	if err := conn.Send(&wire.AllocAck{Epoch: alloc.Epoch}); err != nil {
		t.Fatal(err)
	}
}

// TestStalledAgentIsEvacuated drives the dispatcher's suspect path: an agent
// that completed its handshake and then stopped reading is handed crossing
// requests until its outbound queue overflows. The dispatcher must mark it
// suspect once, tear its connection down, drop it from the agent table and
// report its server down to the runtime, and answer every request that was
// in flight on it. The write deadline is set far past the test, so only the
// suspect path's own teardown can end the connection in time; the client
// queue is widened so the answers of the failed handoffs, which arrive
// together, are not shed.
func TestStalledAgentIsEvacuated(t *testing.T) {
	const maxCalls = 4096
	sc := testScenario(t, 8, 40)
	rt, err := serve.New(serve.Config{Scenario: sc, Policy: serve.Hysteresis()})
	if err != nil {
		t.Fatal(err)
	}
	d, err := StartDispatcher(DispatcherConfig{
		Scenario: sc, Runtime: rt, TimeScale: 0.001, Seed: 42,
		limits: limits{inferTimeout: time.Minute, writeDeadline: time.Minute, clientQueue: maxCalls},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close(); rt.Close() })
	stallAgent(t, d.Addr(), 0)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() {
		_ = Run(ctx, Config{Scenario: sc, Server: 1, Dispatcher: d.Addr(), TimeScale: 0.001, TelemetryPeriod: 5})
	}()
	if err := d.WaitAgents(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	var crossing []int
	for ui, dec := range rt.Current().Decisions {
		if dec.Server == 0 && dec.Eval.CrossProb > 0.5 {
			crossing = append(crossing, ui)
		}
	}
	if len(crossing) == 0 {
		t.Fatal("fixture: no user crosses to server 0 on most requests")
	}

	// Requests go out until the agent is marked suspect: its queue holds
	// agentQueue frames, and the sockets some more.
	c, err := client.Dial(d.Addr(), client.Config{Window: maxCalls, CallTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	callCtx, stop := context.WithTimeout(context.Background(), 30*time.Second)
	defer stop()
	suspect := rt.Metrics().Counter("dataplane.agent_suspect")
	errs := make(chan error, maxCalls)
	calls := 0
	for ; calls < maxCalls && suspect.Value() == 0; calls++ {
		go func(user int) {
			_, err := c.Do(callCtx, user)
			errs <- err
		}(crossing[calls%len(crossing)])
		if calls%32 == 31 {
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for suspect.Value() == 0 || (*d.agents.Load())[0] != nil || rt.Up(0) {
		if time.Now().After(deadline) {
			t.Fatalf("stalled agent not evacuated: suspect %d, still registered %t, server up %t",
				suspect.Value(), (*d.agents.Load())[0] != nil, rt.Up(0))
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			var se *client.StatusError
			if !errors.As(err, &se) {
				t.Fatalf("call %d was not answered: %v", i, err)
			}
		}
	}
	if n := suspect.Value(); n != 1 {
		t.Fatalf("dataplane.agent_suspect = %d, want 1", n)
	}
}
