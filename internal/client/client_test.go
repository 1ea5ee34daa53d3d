package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"edgesurgeon/internal/wire"
)

// fakeServer accepts exactly one connection on loopback and hands it to
// behave on its own goroutine.
func fakeServer(t testing.TB, behave func(nc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		behave(nc)
	}()
	return ln.Addr().String()
}

// wireServer is a fakeServer that first completes the protocol handshake
// (header exchange + Hello/Welcome) like a real dispatcher, then hands the
// framed connection to behave.
func wireServer(t testing.TB, welcome wire.Welcome, behave func(conn *wire.Conn)) string {
	t.Helper()
	return fakeServer(t, func(nc net.Conn) {
		conn, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
		if err != nil {
			nc.Close()
			return
		}
		if _, err := conn.Recv(); err != nil { // Hello
			conn.Close()
			return
		}
		if err := conn.Send(&welcome); err != nil {
			conn.Close()
			return
		}
		behave(conn)
	})
}

// TestHandshakeRejection is the table-driven handshake taxonomy: every way a
// connection attempt can be refused must surface as a *HandshakeError.
func TestHandshakeRejection(t *testing.T) {
	drain := func(nc net.Conn) {
		buf := make([]byte, 256)
		for {
			if _, err := nc.Read(buf); err != nil {
				return
			}
		}
	}
	cases := []struct {
		name string
		addr func(t *testing.T) string
		want string // in the error text, when set
	}{
		{
			name: "bad magic",
			addr: func(t *testing.T) string {
				return fakeServer(t, func(nc net.Conn) {
					go drain(nc)
					nc.Write([]byte{'X', 'X', 'X', 'X', 1})
					nc.Close()
				})
			},
		},
		{
			name: "bad version", // a version 1 dispatcher
			addr: func(t *testing.T) string {
				return fakeServer(t, func(nc net.Conn) {
					go drain(nc)
					var buf [16]byte
					n := copy(buf[:], wire.Magic)
					n += binary.PutUvarint(buf[n:], 1)
					nc.Write(buf[:n])
					nc.Close()
				})
			},
			want: "version 1, want 2",
		},
		{
			name: "dispatcher error reply",
			addr: func(t *testing.T) string {
				return wireServerError(t, "server index 7 out of range")
			},
		},
		{
			name: "unexpected first message",
			addr: func(t *testing.T) string {
				return fakeServer(t, func(nc net.Conn) {
					conn, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
					if err != nil {
						nc.Close()
						return
					}
					conn.Recv()
					conn.Send(&wire.Heartbeat{Time: 1})
					conn.Close()
				})
			},
		},
		{
			name: "connection cut before welcome",
			addr: func(t *testing.T) string {
				return fakeServer(t, func(nc net.Conn) {
					go drain(nc)
					nc.Close()
				})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Dial(tc.addr(t), Config{})
			if err == nil {
				c.Close()
				t.Fatal("handshake unexpectedly succeeded")
			}
			var he *HandshakeError
			if !errors.As(err, &he) {
				t.Fatalf("got %T (%v), want *HandshakeError", err, err)
			}
			if !strings.Contains(he.Error(), tc.want) {
				t.Fatalf("%q does not say %q", he.Error(), tc.want)
			}
		})
	}
}

// wireServerError completes the handshake up to Hello, then rejects with an
// ErrorMsg the way the dispatcher rejects a bad registration.
func wireServerError(t *testing.T, text string) string {
	t.Helper()
	return fakeServer(t, func(nc net.Conn) {
		conn, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
		if err != nil {
			nc.Close()
			return
		}
		conn.Recv()
		conn.Send(&wire.ErrorMsg{Text: text})
		conn.Close()
	})
}

// TestPerCallDeadlineExpiry pins the per-call deadline: a dispatcher that
// never answers must fail the call with *CallError wrapping
// context.DeadlineExceeded, and the client must stay usable.
func TestPerCallDeadlineExpiry(t *testing.T) {
	release := make(chan struct{})
	addr := wireServer(t, wire.Welcome{Servers: 1, Users: 1}, func(conn *wire.Conn) {
		<-release
		conn.Close()
	})
	defer close(release)
	c, err := Dial(addr, Config{CallTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.Do(context.Background(), 0)
	var ce *CallError
	if !errors.As(err, &ce) {
		t.Fatalf("got %T (%v), want *CallError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline expiry error %v does not unwrap to context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("deadline expiry took %v, want ~50ms", waited)
	}
}

// TestContextCancellationMidRequest pins caller cancellation: Do must return
// promptly with *CallError wrapping context.Canceled, and the abandoned
// call's late response must not poison a later call.
func TestContextCancellationMidRequest(t *testing.T) {
	gotReq := make(chan *wire.Request, 2)
	release := make(chan struct{})
	addr := wireServer(t, wire.Welcome{Servers: 1, Users: 1}, func(conn *wire.Conn) {
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			req, ok := m.(*wire.Request)
			if !ok {
				continue
			}
			gotReq <- req
			go func() {
				<-release // answer every request only once released
				conn.Send(&wire.Response{Seq: req.Seq, User: req.User, Status: wire.StatusOK, Server: -1})
			}()
		}
	})
	c, err := Dial(addr, Config{CallTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, 0)
		errCh <- err
	}()
	<-gotReq // the request is on the wire — cancel mid-flight
	cancel()
	select {
	case err := <-errCh:
		var ce *CallError
		if !errors.As(err, &ce) {
			t.Fatalf("got %T (%v), want *CallError", err, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancellation error %v does not unwrap to context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call never returned")
	}

	// The connection survives the abandoned call: release the server's
	// responses (including the stale one) and run a fresh call.
	close(release)
	resp, err := c.Do(context.Background(), 0)
	if err != nil {
		t.Fatalf("call after cancellation: %v", err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("call after cancellation returned status %d", resp.Status)
	}
}

// TestTypedErrorTaxonomy drives the remaining error paths: non-OK statuses
// map to *StatusError, transport loss to *DisconnectError, calls after Close
// to ErrClosed.
func TestTypedErrorTaxonomy(t *testing.T) {
	t.Run("status failed", func(t *testing.T) {
		addr := wireServer(t, wire.Welcome{Servers: 1, Users: 1}, func(conn *wire.Conn) {
			for {
				m, err := conn.Recv()
				if err != nil {
					return
				}
				if req, ok := m.(*wire.Request); ok {
					conn.Send(&wire.Response{Seq: req.Seq, User: req.User, Status: wire.StatusFailed, Server: 0})
				}
			}
		})
		c, err := Dial(addr, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		resp, err := c.Do(context.Background(), 0)
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("got %T (%v), want *StatusError", err, err)
		}
		if se.Status != wire.StatusFailed {
			t.Fatalf("StatusError carries status %d, want %d", se.Status, wire.StatusFailed)
		}
		if resp == nil || resp.Status != wire.StatusFailed {
			t.Fatal("failed response not returned alongside the StatusError")
		}
	})
	t.Run("disconnect mid-request", func(t *testing.T) {
		addr := wireServer(t, wire.Welcome{Servers: 1, Users: 1}, func(conn *wire.Conn) {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if _, ok := m.(*wire.Request); ok {
				conn.Close() // hang up with the call in flight
			}
		})
		c, err := Dial(addr, Config{CallTimeout: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, err = c.Do(context.Background(), 0)
		var de *DisconnectError
		if !errors.As(err, &de) {
			t.Fatalf("got %T (%v), want *DisconnectError", err, err)
		}
	})
	t.Run("closed client", func(t *testing.T) {
		addr := wireServer(t, wire.Welcome{Servers: 1, Users: 1}, func(conn *wire.Conn) {
			for {
				if _, err := conn.Recv(); err != nil {
					return
				}
			}
		})
		c, err := Dial(addr, Config{})
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		if _, err := c.Do(context.Background(), 0); !errors.Is(err, ErrClosed) {
			t.Fatalf("Do after Close returned %v, want ErrClosed", err)
		}
	})
}

// TestWindowBoundsInFlight pins the in-flight window: with Window 1 and one
// call parked, a second call must block on the window slot and obey its
// context rather than reaching the wire.
func TestWindowBoundsInFlight(t *testing.T) {
	reqs := make(chan uint64, 8)
	release := make(chan struct{})
	addr := wireServer(t, wire.Welcome{Servers: 1, Users: 1}, func(conn *wire.Conn) {
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if req, ok := m.(*wire.Request); ok {
				reqs <- req.Seq
				go func() {
					<-release
					conn.Send(&wire.Response{Seq: req.Seq, User: req.User, Status: wire.StatusOK, Server: -1})
				}()
			}
		}
	})
	defer close(release)
	c, err := Dial(addr, Config{Window: 1, CallTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	go c.Do(context.Background(), 0) // parks in flight
	<-reqs                           // ... confirmed on the wire

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = c.Do(ctx, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("window-blocked call returned %v, want deadline expiry", err)
	}
	select {
	case seq := <-reqs:
		t.Fatalf("window-blocked call still reached the wire (seq %d)", seq)
	default:
	}
}
