package client

import (
	"context"
	"errors"
	"fmt"
	"net"
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
// (its decoded Request and its Response): 8 with the default deadline on a
// pooled timer, 13 when every call derived a context.WithTimeout. (The
// benchmark's client.do_allocs counts the same call against its own stub:
// 12, from 17.)
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
	}); n > 8 {
		t.Errorf("Do allocates %v times per call, want <= 8", n)
	}
}

// TestExpiredTimerIsNotReused: a timer that fired for one call must never
// reach the next already expired. With a 1 ms CallTimeout and a responder
// that answers every other call, half the calls expire; none may report
// expiry sooner than the timeout (a stale timer reads as expired at once),
// and every expiry must be on a call the responder ignored or — the host
// stalling — have taken the full timeout.
func TestExpiredTimerIsNotReused(t *testing.T) {
	const timeout = time.Millisecond
	addr := stubResponder(t, func(seq uint64) bool { return seq%2 == 0 })
	c, err := Dial(addr, Config{CallTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	expired := 0
	for call := 1; call <= 200; call++ {
		start := time.Now()
		_, err := c.Do(context.Background(), 0)
		took := time.Since(start)
		switch {
		case err == nil && call%2 == 0:
		case errors.Is(err, context.DeadlineExceeded) && took >= timeout:
			expired++
		default:
			t.Fatalf("call %d returned %v after %v", call, err, took)
		}
	}
	if expired < 100 {
		t.Fatalf("%d calls expired, want the 100 the responder ignored", expired)
	}
}
