package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgesurgeon/internal/wire"
)

// stubResponder is a wireServer that answers every Request for which answer
// returns true with an OK Response, from its read loop, as fast as it can.
func stubResponder(t testing.TB, answer func(seq uint64) bool) string {
	return wireServer(t, wire.Welcome{Servers: 1, Users: 1}, func(conn *wire.Conn) {
		defer conn.Close()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if req, ok := m.(*wire.Request); ok && answer(req.Seq) {
				if conn.Send(&wire.Response{Seq: req.Seq, User: req.User, Status: wire.StatusOK, Server: -1}) != nil {
					return
				}
			}
		}
	})
}

// countedConn counts the Writes that reach the socket.
type countedConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// dialCounted is Dial over a countedConn, the count reset after the handshake.
func dialCounted(t testing.TB, addr string, cfg Config) (*Client, *countedConn) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countedConn{Conn: nc}
	c, err := New(cc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc.writes.Store(0)
	return c, cc
}

// BenchmarkClientDo: Do against a stub responder on loopback TCP, one call at
// a time and with 32 in flight. frames/write is the requests one write(2)
// carries: 1 at inflight=1 by construction, and what write combining buys at
// inflight=32. allocs/op is the whole process's, the stub's two included.
func BenchmarkClientDo(b *testing.B) {
	for _, inflight := range []int{1, 32} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			c, cc := dialCounted(b, stubResponder(b, func(uint64) bool { return true }), Config{Window: inflight})
			defer c.Close()
			ctx := context.Background()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < inflight; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := c.Do(ctx, 0); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/float64(cc.writes.Load()), "frames/write")
		})
	}
}

// TestDoAllocations pins what one Do costs the heap, stub responder included
// (its decoded Request and its Response): 5 with the call a pooled record
// that carries its Request, under one expiry timer per client; 8 when each
// call made its response channel and Request and took a pooled timer; 13
// when every call derived a context.WithTimeout. (The benchmark's
// client.do_allocs counts the same call against its own stub: 9, from 12
// and 17 before that.)
func TestDoAllocations(t *testing.T) {
	c, err := Dial(stubResponder(t, func(uint64) bool { return true }), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if n := testing.AllocsPerRun(500, func() {
		if _, err := c.Do(ctx, 0); err != nil {
			t.Fatal(err)
		}
	}); n > 5 {
		t.Errorf("Do allocates %v times per call, want <= 5", n)
	}
}

// TestExpiryNeverEarly: the expiry timer fails a call at its deadline, never
// before. With a 1 ms CallTimeout and a responder that answers every other
// call, half the calls expire; none may report expiry sooner than the
// timeout, and every expiry must be on a call the responder ignored or — the
// host stalling — have taken the full timeout.
func TestExpiryNeverEarly(t *testing.T) {
	const timeout = time.Millisecond
	addr := stubResponder(t, func(seq uint64) bool { return seq%2 == 0 })
	c, err := Dial(addr, Config{CallTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	expired := 0
	for i := 1; i <= 200; i++ {
		start := time.Now()
		_, err := c.Do(context.Background(), 0)
		took := time.Since(start)
		switch {
		case err == nil && i%2 == 0:
		case errors.Is(err, context.DeadlineExceeded) && took >= timeout:
			expired++
		default:
			t.Fatalf("call %d returned %v after %v", i, err, took)
		}
	}
	if expired < 100 {
		t.Fatalf("%d calls expired, want the 100 the responder ignored", expired)
	}
}

// TestCancelledContextSendsNothing: a call whose context is already done
// returns its *CallError without taking a window slot or reaching the wire. A
// select over the free slot and ctx.Done() would pick either, half the time.
func TestCancelledContextSendsNothing(t *testing.T) {
	c, cc := dialCounted(t, stubResponder(t, func(uint64) bool { return true }), Config{})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 1000; i++ {
		resp, err := c.Do(ctx, 0)
		var ce *CallError
		if resp != nil || !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d returned (%v, %v), want a *CallError wrapping context.Canceled", i, resp, err)
		}
	}
	if n := cc.writes.Load(); n != 0 {
		t.Fatalf("1000 cancelled calls made %d writes, want 0", n)
	}
}

// TestWindowWaitCountsAgainstDeadline: the default deadline runs from Do's
// entry, not from the moment a window slot frees. With Window 1 and nothing
// answered, call A holds the slot until it expires at 100 ms; call B, started
// at 20 ms, takes the slot then and must expire at ~120 ms, not ~220 ms.
func TestWindowWaitCountsAgainstDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	c, err := Dial(stubResponder(t, func(uint64) bool { return false }), Config{Window: 1, CallTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errA := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), 0)
		errA <- err
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	_, errB := c.Do(context.Background(), 1)
	took := time.Since(start)
	for name, err := range map[string]error{"A": <-errA, "B": errB} {
		var ce *CallError
		if !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %s returned %v, want a *CallError wrapping context.DeadlineExceeded", name, err)
		}
	}
	// Counted from the slot instead, B would take ~180 ms.
	if took < timeout || took > timeout+timeout/2 {
		t.Fatalf("call B expired %v after it started, want %v: the window wait counts against the deadline", took, timeout)
	}
}

// TestExactlyOnceUnderMixedOutcomes: 64 goroutines issue calls that end each
// of the ways a call can end — answered, answered late, ignored until the
// expiry timer fails them, cancelled mid-flight, cancelled as their answer
// arrives, or carried past CallTimeout by a context deadline of their own —
// and then the connection is dropped under one call each. Every Do returns
// once with its kind's outcome, an OK response always echoes its own caller's
// user (late answers to abandoned calls are discarded), and after Close
// nothing is pending and no goroutine is left behind.
func TestExactlyOnceUnderMixedOutcomes(t *testing.T) {
	const (
		workers = 64
		rounds  = 12
		timeout = 100 * time.Millisecond
	)
	const (
		answered = iota
		late
		expired
		cancelled
		racing
		ownDeadline
		dropped
		kinds
	)
	base := runtime.NumGoroutine()
	addr := wireServer(t, wire.Welcome{Servers: 1, Users: 1}, func(conn *wire.Conn) {
		defer conn.Close()
		held := 0
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			req, ok := m.(*wire.Request)
			if !ok {
				continue
			}
			resp := &wire.Response{Seq: req.Seq, User: req.User, Status: wire.StatusOK, Server: -1}
			answer := func(after time.Duration) { time.AfterFunc(after, func() { conn.Send(resp) }) }
			switch req.User % kinds {
			case answered, racing:
				conn.Send(resp)
			case late:
				answer(2 * time.Millisecond)
			case expired, cancelled, ownDeadline:
				// After the first two were abandoned; past CallTimeout but
				// inside its own context's deadline for the third.
				answer(2 * timeout)
			case dropped:
				if held++; held == workers {
					return // hang up under every worker's last call
				}
			}
		}
	})
	c, err := Dial(addr, Config{Window: workers, CallTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}

	check := func(user int, resp *wire.Response, err error) error {
		var ce *CallError
		var de *DisconnectError
		switch kind := user % kinds; {
		case kind == answered || kind == late || kind == ownDeadline || kind == racing && err == nil:
			if err != nil || resp.User != user {
				return fmt.Errorf("kind %d: got (%v, %v), want user %d's response", kind, resp, err, user)
			}
		case kind == racing && errors.As(err, &ce) && errors.Is(err, context.Canceled),
			kind == expired && errors.As(err, &ce) && errors.Is(err, context.DeadlineExceeded) && ce.Seq != 0,
			kind == cancelled && errors.As(err, &ce) && errors.Is(err, context.Canceled) && ce.Seq != 0,
			kind == dropped && errors.As(err, &de):
		default:
			return fmt.Errorf("kind %d: got (%v, %v)", kind, resp, err)
		}
		return nil
	}
	errs := make(chan error, workers*(rounds+1))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r <= rounds; r++ {
				kind := (w + r) % (kinds - 1)
				if r == rounds {
					kind = dropped
				}
				user := (w*(rounds+1)+r)*kinds + kind
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				switch kind {
				case cancelled:
					ctx, cancel = context.WithCancel(ctx)
					time.AfterFunc(5*time.Millisecond, cancel)
				case racing:
					ctx, cancel = context.WithCancel(ctx)
					time.AfterFunc(time.Duration(w%8)*25*time.Microsecond, cancel)
				case ownDeadline, dropped:
					ctx, cancel = context.WithTimeout(ctx, 20*timeout)
				}
				resp, err := c.Do(ctx, user)
				cancel()
				if err := check(user, resp, err); err != nil {
					errs <- err
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(20 * time.Second):
		t.Fatal("a call never returned")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	c.Close()
	c.mu.Lock()
	left := len(c.pending)
	c.mu.Unlock()
	if left != 0 {
		t.Errorf("%d calls still pending after Close", left)
	}
	for wait := time.Now(); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Since(wait) > 5*time.Second {
			t.Fatalf("%d goroutines after Close, %d before Dial", runtime.NumGoroutine(), base)
		}
	}
}

// TestAbandonTakesTheDeliveredOutcome: when Do gives up on a call that
// another path has already removed from the pending map, it returns that
// path's outcome, not its own error, and leaves the record's channel empty
// for the record's next use. A call still pending ends with Do's error.
func TestAbandonTakesTheDeliveredOutcome(t *testing.T) {
	c, err := Dial(stubResponder(t, func(uint64) bool { return false }), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := callPool.Get().(*call)
	k.req.Seq = 1 << 40
	resp := &wire.Response{Seq: k.req.Seq}
	c.mu.Lock()
	c.pending[k.req.Seq] = k
	c.finishLocked(k, outcome{resp: resp})
	c.mu.Unlock()
	if out := c.abandon(k, ErrClosed); out.resp != resp || out.err != nil || len(k.ch) != 0 {
		t.Fatalf("abandoning a finished call returned %+v with %d left queued, want its response", out, len(k.ch))
	}
	c.mu.Lock()
	c.pending[k.req.Seq] = k
	c.mu.Unlock()
	out := c.abandon(k, ErrClosed)
	c.mu.Lock()
	_, left := c.pending[k.req.Seq]
	c.mu.Unlock()
	if out.err != ErrClosed || left || len(k.ch) != 0 {
		t.Fatalf("abandoning a pending call returned %+v (still pending: %v, %d queued), want ErrClosed", out, left, len(k.ch))
	}
}
