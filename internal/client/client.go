// Package client is the minimal Go client for the networked data plane: it
// speaks the internal/wire protocol to a dispatcher (cmd/edgeserved
// -listen), submitting inference requests and matching the responses back to
// their callers. It is what external load sources use instead of hand-rolled
// protocol handling — internal/cluster's load generator and the edgeserved
// live-mode driver are both built on it.
//
// The client is deliberately small and strict:
//
//   - Dial performs the full handshake (header exchange, Hello/Welcome) under
//     a deadline and returns a typed *HandshakeError on any rejection — a
//     foreign peer, a version mismatch, a dispatcher ErrorMsg, or a
//     deployment shape that contradicts Config.ExpectServers/ExpectUsers.
//   - Do submits one request and blocks for its response, honoring both the
//     caller's context and the per-call deadline. Cancellation abandons the
//     call (the response, if it ever arrives, is discarded) without poisoning
//     the connection. The default deadline (Config.CallTimeout) is a pooled
//     timer Do selects on beside ctx.Done(), not a context derived per call;
//     its expiry reads the same from outside (*CallError wrapping
//     context.DeadlineExceeded), and a context that carries a deadline of
//     its own still governs alone.
//   - In-flight requests are bounded by Config.Window, so a caller fanning
//     out cannot flood the dispatcher's per-connection response queue into
//     shedding; Do blocks for a window slot (context-cancellable).
//   - Transport loss fails every in-flight call with a typed
//     *DisconnectError. A dispatcher that sheds this client's responses past
//     its strike limit disconnects it, which surfaces the same way — see the
//     error taxonomy in errors.go.
//
// One goroutine per client reads the connection; Do may be called from any
// number of goroutines concurrently.
package client

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"edgesurgeon/internal/wire"
)

// Config configures one client connection.
type Config struct {
	// ID is the client's registration name; empty means "client".
	ID string
	// DialTimeout bounds the TCP connect plus the protocol handshake;
	// 0 means 10s.
	DialTimeout time.Duration
	// CallTimeout is the default per-call deadline Do applies when the
	// caller's context carries none; 0 means 30s. Negative means no
	// default deadline (the context alone governs).
	CallTimeout time.Duration
	// Window bounds the requests this client keeps in flight; Do blocks
	// (context-cancellable) for a slot. 0 means 16.
	Window int
	// ExpectServers / ExpectUsers, when > 0, validate the dispatcher's
	// Welcome against the deployment shape the caller believes it is
	// attached to; a mismatch is a *HandshakeError.
	ExpectServers, ExpectUsers int
}

func (c *Config) id() string {
	if c.ID != "" {
		return c.ID
	}
	return "client"
}

func (c *Config) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return 10 * time.Second
}

func (c *Config) callTimeout() time.Duration {
	if c.CallTimeout != 0 {
		return c.CallTimeout
	}
	return 30 * time.Second
}

func (c *Config) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return 16
}

// Client is one live connection to a dispatcher.
type Client struct {
	cfg     Config
	conn    *wire.Conn
	nc      net.Conn
	welcome wire.Welcome

	seq    atomic.Uint64
	window chan struct{} // in-flight slots

	mu      sync.Mutex
	pending map[uint64]chan *wire.Response
	dead    error // set once the read loop exits; nil while live
	closed  bool  // Close was called (dead becomes ErrClosed)

	done chan struct{} // closed when the read loop exits
}

// Dial connects to a dispatcher and performs the handshake.
func Dial(addr string, cfg Config) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, cfg.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("client: dialing %s: %w", addr, err)
	}
	return New(nc, cfg)
}

// New performs the handshake over an existing connection (Dial's second
// half, split out so tests and fuzzers can drive the client over pipes).
// On error the connection is closed.
func New(nc net.Conn, cfg Config) (*Client, error) {
	_ = nc.SetDeadline(time.Now().Add(cfg.dialTimeout()))
	conn, err := wire.NewConn(bufio.NewReader(nc), nc, nc)
	if err != nil {
		nc.Close()
		return nil, &HandshakeError{Reason: "header exchange", Err: err}
	}
	fail := func(reason string, err error) (*Client, error) {
		conn.Close()
		return nil, &HandshakeError{Reason: reason, Err: err}
	}
	if err := conn.Send(&wire.Hello{Role: wire.RoleClient, ID: cfg.id()}); err != nil {
		return fail("sending hello", err)
	}
	m, err := conn.Recv()
	if err != nil {
		return fail("awaiting welcome", err)
	}
	switch m := m.(type) {
	case *wire.Welcome:
		if cfg.ExpectServers > 0 && m.Servers != cfg.ExpectServers {
			return fail(fmt.Sprintf("dispatcher serves %d servers, expected %d", m.Servers, cfg.ExpectServers), nil)
		}
		if cfg.ExpectUsers > 0 && m.Users != cfg.ExpectUsers {
			return fail(fmt.Sprintf("dispatcher serves %d users, expected %d", m.Users, cfg.ExpectUsers), nil)
		}
		_ = nc.SetDeadline(time.Time{})
		c := &Client{
			cfg:     cfg,
			conn:    conn,
			nc:      nc,
			welcome: *m,
			window:  make(chan struct{}, cfg.window()),
			pending: map[uint64]chan *wire.Response{},
			done:    make(chan struct{}),
		}
		go c.readLoop()
		return c, nil
	case *wire.ErrorMsg:
		return fail("dispatcher rejected handshake: "+m.Text, nil)
	default:
		return fail(fmt.Sprintf("expected Welcome, got %T", m), nil)
	}
}

// Welcome returns the dispatcher's handshake reply (deployment shape).
func (c *Client) Welcome() wire.Welcome { return c.welcome }

// readLoop is the single reader: it routes responses to their waiting calls
// until the transport dies, then fails everything in flight.
func (c *Client) readLoop() {
	var cause error
	for {
		m, err := c.conn.Recv()
		if err != nil {
			cause = err
			break
		}
		switch m := m.(type) {
		case *wire.Response:
			c.mu.Lock()
			ch := c.pending[m.Seq]
			delete(c.pending, m.Seq)
			c.mu.Unlock()
			if ch != nil {
				ch <- m
			}
		case *wire.ErrorMsg:
			cause = fmt.Errorf("dispatcher error: %s", m.Text)
		case *wire.Heartbeat:
			// Keep-alive; nothing to route.
		default:
			// Unknown-but-well-formed frames are tolerated: a newer
			// dispatcher may speak messages this client does not use.
		}
		if cause != nil {
			break
		}
	}
	c.mu.Lock()
	if c.dead == nil {
		if c.closed {
			c.dead = ErrClosed
		} else {
			c.dead = &DisconnectError{Err: cause}
		}
	}
	orphans := c.pending
	c.pending = map[uint64]chan *wire.Response{}
	c.mu.Unlock()
	close(c.done)
	for _, ch := range orphans {
		close(ch)
	}
}

// deadErr returns the terminal error once the connection is gone.
func (c *Client) deadErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return c.dead
	}
	if c.closed {
		return ErrClosed
	}
	return nil
}

// Do submits one inference request for user and blocks for its response.
// The call is governed by ctx plus the configured per-call deadline; on
// expiry or cancellation the call is abandoned (a late response is
// discarded) and the context error is returned wrapped in *CallError so
// errors.Is(err, context.DeadlineExceeded / context.Canceled) holds. A
// non-OK response status returns *StatusError; transport loss returns
// *DisconnectError.
func (c *Client) Do(ctx context.Context, user int) (*wire.Response, error) {
	// The default deadline is a pooled timer beside ctx.Done(), not a
	// context derived per call: nil (never ready) when ctx has a deadline
	// of its own or the default is off.
	var expired <-chan time.Time
	if d := c.cfg.callTimeout(); d > 0 {
		if _, has := ctx.Deadline(); !has {
			t := getTimer(d)
			defer putTimer(t)
			expired = t.C
		}
	}

	// A window slot bounds this client's in-flight requests.
	select {
	case c.window <- struct{}{}:
	case <-ctx.Done():
		return nil, &CallError{User: user, Err: ctx.Err()}
	case <-expired:
		return nil, &CallError{User: user, Err: context.DeadlineExceeded}
	case <-c.done:
		return nil, c.deadErr()
	}
	defer func() { <-c.window }()

	seq := c.seq.Add(1)
	ch := make(chan *wire.Response, 1)
	c.mu.Lock()
	if c.dead != nil || c.closed {
		err := c.dead
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
	c.pending[seq] = ch
	c.mu.Unlock()
	abandon := func() {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
	}

	if err := c.conn.Send(&wire.Request{Seq: seq, User: user}); err != nil {
		abandon()
		if dead := c.deadErr(); dead != nil {
			return nil, dead
		}
		return nil, &DisconnectError{Err: err}
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, c.deadErr()
		}
		if resp.Status != wire.StatusOK {
			return resp, &StatusError{Status: resp.Status, User: user, Seq: seq}
		}
		return resp, nil
	case <-ctx.Done():
		abandon()
		return nil, &CallError{User: user, Seq: seq, Err: ctx.Err()}
	case <-expired:
		abandon()
		return nil, &CallError{User: user, Seq: seq, Err: context.DeadlineExceeded}
	case <-c.done:
		return nil, c.deadErr()
	}
}

// timerPool holds stopped timers whose channels are empty.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer pools t only if Stop caught it before it fired. A timer that
// fired has sent, or is about to send, on its channel (go.mod's timers are
// the asynchronous kind); it is dropped, so the next call can never be handed
// one that reads as already expired.
func putTimer(t *time.Timer) {
	if t.Stop() {
		timerPool.Put(t)
	}
}

// Close tears the connection down. In-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done // read loop has failed all pending calls
	return err
}
