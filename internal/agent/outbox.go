package agent

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"edgesurgeon/internal/wire"
)

// errOutboxDead is the terminal error an agent shuts its outbox with when a
// frame does not fit: the queue is full, or its writer already gone.
var errOutboxDead = errors.New("agent: outbound queue closed")

// outbox is one connection's bounded outbound queue, drained by a single
// writer goroutine that moves whatever is queued (up to wire.BatchBytes) into
// the connection and flushes it with one write under one deadline. Between
// receiving the first frame of a batch and draining the rest it yields the
// processor once (wire.Conn's rule: queue, yield, write), so the answers a
// read loop gives to one batched read, or the clock callbacks one deadline
// runs, are queued before the write instead of paying one write each. It is
// the plane's backpressure boundary: enqueue never blocks, so a peer whose
// socket has stopped absorbing bytes can stall only its own writer — never a
// read loop, a clock callback, the telemetry ingest loop, or an allocation
// push.
//
// What happens on pressure is the caller's policy: enqueue returns false on
// overflow (the dispatcher sheds a client response, or marks an agent
// suspect), and a write that misses its deadline kills the connection
// outright — a frame half-written to a stalled socket has already corrupted
// the stream, so there is nothing gentler to do than disconnect.
type outbox struct {
	conn     *wire.Conn
	nc       net.Conn // for per-flush write deadlines
	deadline time.Duration

	ch      chan wire.Msg
	waiting atomic.Int64 // frames accepted and not yet written
	done    chan struct{}

	mu   sync.Mutex
	dead bool
	err  error

	// onTrip is called when a flush misses its deadline (before
	// onDead). onDead is called exactly once when the writer dies with a
	// transport error or the outbox is shut with one; a nil-error shut
	// (normal teardown) skips it. onFlush is called after each successful
	// flush with the frames it carried. All may be nil.
	onTrip  func()
	onDead  func(error)
	onFlush func(frames int64)
}

func newOutbox(conn *wire.Conn, nc net.Conn, queue int, deadline time.Duration) *outbox {
	if queue < 1 {
		queue = 1
	}
	return &outbox{
		conn:     conn,
		nc:       nc,
		deadline: deadline,
		ch:       make(chan wire.Msg, queue),
		done:     make(chan struct{}),
	}
}

// enqueue queues one frame for the writer without ever blocking. False means
// the queue is full or the writer is gone; the caller decides whether that is
// a shed (client response) or a suspect connection (agent push).
func (o *outbox) enqueue(m wire.Msg) bool {
	select {
	case <-o.done:
		return false
	default:
	}
	select {
	case o.ch <- m:
		o.waiting.Add(1)
		return true
	default:
		return false
	}
}

// queued reports the frames accepted and not yet written: still in the queue
// or in a batch whose flush has not succeeded (the count abandoned when a
// connection dies — they are shed by definition).
func (o *outbox) queued() int { return int(o.waiting.Load()) }

// run drains the queue until the connection dies or shut is called. The
// caller owns the goroutine's lifetime accounting (dispatcher wg).
func (o *outbox) run() {
	for {
		select {
		case <-o.done:
			return
		case m := <-o.ch:
			n, err := o.flush(m)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() && o.onTrip != nil {
					o.onTrip()
				}
				o.shut(err)
				return
			}
			o.waiting.Add(-n)
			if o.onFlush != nil {
				o.onFlush(n)
			}
		}
	}
}

// flush yields once, so that every producer already runnable enqueues first,
// then moves m and whatever is queued behind it, up to wire.BatchBytes, into
// the connection and writes the batch under one write deadline (armed after
// the yield: it bounds the write, not the wait for the processor). It returns
// the frames it took from the queue.
func (o *outbox) flush(m wire.Msg) (n int64, err error) {
	runtime.Gosched()
	for size := 0; m != nil; n++ {
		if size, err = o.conn.Queue(m); err != nil {
			return n, err
		}
		m = nil
		if size < wire.BatchBytes {
			select {
			case m = <-o.ch:
			default:
			}
		}
	}
	if o.deadline > 0 {
		_ = o.nc.SetWriteDeadline(time.Now().Add(o.deadline))
	}
	return n, o.conn.Flush()
}

// shut kills the outbox once: the writer stops, the underlying connection is
// closed (unblocking the peer's read loop so normal disconnect teardown
// runs), and onDead fires if err is non-nil. Safe to call from any
// goroutine, any number of times.
func (o *outbox) shut(err error) {
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return
	}
	o.dead = true
	o.err = err
	o.mu.Unlock()
	close(o.done)
	_ = o.conn.Close()
	if err != nil && o.onDead != nil {
		o.onDead(err)
	}
}

// deadErr returns the error the outbox died with (nil while alive or after a
// clean shut).
func (o *outbox) deadErr() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}
