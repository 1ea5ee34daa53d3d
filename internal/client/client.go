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
//     foreign peer, a version mismatch or a dispatcher ErrorMsg.
//   - Do submits one request and blocks for its response, honoring both the
//     caller's context and the per-call deadline. Cancellation abandons the
//     call (the response, if it ever arrives, is discarded) without poisoning
//     the connection. A call is a pooled record in the pending map; whoever
//     removes it (response, expiry, transport loss, cancellation) delivers
//     its outcome, once, and Do waits on that record alone. The default
//     deadline (Config.CallTimeout) is one timer per client armed at the
//     earliest deadline in flight; its expiry is a *CallError wrapping
//     context.DeadlineExceeded, and a context that carries a deadline of its
//     own still governs alone.
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
	"time"

	"edgesurgeon/internal/wire"
)

// Config configures one client connection.
type Config struct {
	// ID is the client's registration name; empty means "client".
	ID string
	// CallTimeout is the default per-call deadline Do applies when the
	// caller's context carries none; 0 means 30s. Negative means no
	// default deadline (the context alone governs).
	CallTimeout time.Duration
	// Window bounds the requests this client keeps in flight; Do blocks
	// (context-cancellable) for a slot. 0 means 16.
	Window int
}

// handshakeTimeout bounds the TCP connect plus the protocol handshake, as it
// does for an agent.
const handshakeTimeout = 10 * time.Second

func (c *Config) id() string {
	if c.ID != "" {
		return c.ID
	}
	return "client"
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
	cfg  Config
	conn *wire.Conn
	nc   net.Conn

	window chan struct{} // in-flight slots

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*call
	expiry  *time.Timer // fails expired calls; see expire
	armed   time.Time   // the deadline expiry is armed for; zero when idle
	dead    error       // set once the read loop exits; nil while live
	closed  bool        // Close was called (dead becomes ErrClosed)

	done chan struct{} // closed when the read loop exits
}

// call is one request in flight. Whoever removes it from Client.pending
// sends its outcome on ch, under Client.mu; ch holds one, so that send never
// blocks, and Do receives it exactly once before the record is pooled.
type call struct {
	req      wire.Request // Seq and User; sent from here, so it costs no allocation
	deadline time.Time    // the default deadline; zero when ctx governs alone
	ch       chan outcome
}

// outcome is what a call ends with: a response, or a typed error.
type outcome struct {
	resp *wire.Response
	err  error
}

var callPool = sync.Pool{New: func() any { return &call{ch: make(chan outcome, 1)} }}

// Dial connects to a dispatcher and performs the handshake.
func Dial(addr string, cfg Config) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dialing %s: %w", addr, err)
	}
	return New(nc, cfg)
}

// New performs the handshake over an existing connection (Dial's second
// half, split out so tests and fuzzers can drive the client over pipes).
// On error the connection is closed.
func New(nc net.Conn, cfg Config) (*Client, error) {
	_ = nc.SetDeadline(time.Now().Add(handshakeTimeout))
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
		_ = nc.SetDeadline(time.Time{})
		c := &Client{
			cfg:     cfg,
			conn:    conn,
			nc:      nc,
			window:  make(chan struct{}, cfg.window()),
			pending: map[uint64]*call{},
			done:    make(chan struct{}),
		}
		c.expiry = time.AfterFunc(time.Hour, c.expire)
		c.expiry.Stop() // armed by the first call with a default deadline
		go c.readLoop()
		return c, nil
	case *wire.ErrorMsg:
		return fail("dispatcher rejected handshake: "+m.Text, nil)
	default:
		return fail(fmt.Sprintf("expected Welcome, got %T", m), nil)
	}
}

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
			if k := c.pending[m.Seq]; k != nil {
				c.finishLocked(k, outcome{resp: m})
			}
			c.mu.Unlock()
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
	for _, k := range c.pending {
		c.finishLocked(k, outcome{err: c.dead})
	}
	c.expiry.Stop()
	c.mu.Unlock()
	close(c.done)
}

// finishLocked removes k from the pending map and delivers its outcome.
// c.mu is held.
func (c *Client) finishLocked(k *call, out outcome) {
	delete(c.pending, k.req.Seq)
	k.ch <- out
}

// expire is the expiry timer's callback: it fails every call whose default
// deadline has passed and re-arms for the earliest one left. pending holds at
// most Window calls, so the scan is short, and a call that completes in time
// never touches the timer.
func (c *Client) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.armed = time.Time{}
	for _, k := range c.pending {
		switch {
		case k.deadline.IsZero():
		case !k.deadline.After(now):
			c.finishLocked(k, outcome{err: &CallError{User: k.req.User, Seq: k.req.Seq, Err: context.DeadlineExceeded}})
		case c.armed.IsZero() || k.deadline.Before(c.armed):
			c.armed = k.deadline
		}
	}
	if !c.armed.IsZero() {
		c.expiry.Reset(c.armed.Sub(now))
	}
}

// deadErr returns the terminal error once the connection is gone or closing,
// and otherwise while it is live.
func (c *Client) deadErr(otherwise error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return c.dead
	}
	if c.closed {
		return ErrClosed
	}
	return otherwise
}

// Do submits one inference request for user and blocks for its response.
// The call is governed by ctx plus the configured per-call deadline; on
// expiry or cancellation the call is abandoned (a late response is
// discarded) and the context error is returned wrapped in *CallError so
// errors.Is(err, context.DeadlineExceeded / context.Canceled) holds. A
// non-OK response status returns *StatusError; transport loss returns
// *DisconnectError.
func (c *Client) Do(ctx context.Context, user int) (*wire.Response, error) {
	// A context that is already done sends nothing: a select would take a
	// free window slot as often as ctx.Done().
	if err := ctx.Err(); err != nil {
		return nil, &CallError{User: user, Err: err}
	}
	// The default deadline runs from here, so a window wait counts against
	// it; a context with a deadline of its own governs alone.
	var deadline time.Time
	if d := c.cfg.callTimeout(); d > 0 {
		if _, has := ctx.Deadline(); !has {
			deadline = time.Now().Add(d)
		}
	}

	// A window slot bounds this client's in-flight requests.
	select {
	case c.window <- struct{}{}:
	default:
		if err := c.waitWindow(ctx, user, deadline); err != nil {
			return nil, err
		}
	}
	defer func() { <-c.window }()

	c.mu.Lock()
	if c.dead != nil || c.closed {
		err := c.dead
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
	c.seq++
	k := callPool.Get().(*call)
	k.req, k.deadline = wire.Request{Seq: c.seq, User: user}, deadline
	c.pending[c.seq] = k
	if !deadline.IsZero() && (c.armed.IsZero() || deadline.Before(c.armed)) {
		c.armed = deadline
		c.expiry.Reset(time.Until(deadline))
	}
	c.mu.Unlock()

	var out outcome
	switch err := c.conn.Send(&k.req); {
	case err != nil:
		out = c.abandon(k, c.deadErr(&DisconnectError{Err: err}))
	case ctx.Done() == nil:
		out = <-k.ch
	default:
		select {
		case out = <-k.ch:
		case <-ctx.Done():
			out = c.abandon(k, &CallError{User: user, Seq: k.req.Seq, Err: ctx.Err()})
		}
	}
	seq := k.req.Seq
	callPool.Put(k)
	if out.err != nil {
		return nil, out.err
	}
	if out.resp.Status != wire.StatusOK {
		return out.resp, &StatusError{Status: out.resp.Status, User: user, Seq: seq}
	}
	return out.resp, nil
}

// waitWindow blocks for a window slot once the window is full, under ctx, the
// default deadline (if any) and the connection's life.
func (c *Client) waitWindow(ctx context.Context, user int, deadline time.Time) error {
	var expired <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expired = t.C
	}
	select {
	case c.window <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &CallError{User: user, Err: ctx.Err()}
	case <-expired:
		return &CallError{User: user, Err: context.DeadlineExceeded}
	case <-c.done:
		return c.deadErr(nil)
	}
}

// abandon ends k on Do's own behalf with err, unless another path removed it
// from the pending map first, and returns the outcome k ended with.
func (c *Client) abandon(k *call, err error) outcome {
	c.mu.Lock()
	if c.pending[k.req.Seq] == k {
		c.finishLocked(k, outcome{err: err})
	}
	c.mu.Unlock()
	return <-k.ch
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
