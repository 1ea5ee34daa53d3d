// Package pace keeps wall-clock deadlines to well under a millisecond.
//
// An idle Go runtime parks in epoll_wait, whose timeout is whole
// milliseconds, so a runtime timer (time.Sleep, time.After) that fires into
// an idle process is late by up to one (DESIGN.md, "Modelled time"). Until
// is the wait that does not pay it: every waiter of the process registers
// its deadline with one pacer goroutine, which parks in the runtime poller on
// a kernel timer without slack (a timerfd on Linux), armed coarse before the
// earliest deadline and then a slice at a time. It holds no thread and no P
// while it waits, never spins, and is not involved at all in a wait that is
// already due. Its wake-ups also fire the process's due runtime timers. What
// it costs is CPU, a poller wake-up per slice.
//
// Its one kind of waiter is a callback, run outside the heap lock (it may
// call At) and never blocking (later deadlines wait behind it); Until is At
// plus a channel. Both are wall time only: model time (agent.Clock) is built
// on At, and a load generator pacing its own sends can use Until directly.
package pace

import (
	"container/heap"
	"sync"
	"time"
)

const (
	// coarse is how long before a deadline the pacer starts waking every
	// slice: one wake-up out of a long idle comes late, the later the longer
	// the CPU idled, and slices keep the last stretch warm. It is the
	// poller's millisecond and a quarter, what a runtime timer is late by.
	coarse = 1250 * time.Microsecond
	// slice is the wake-up period inside the last coarse before a deadline.
	slice = 200 * time.Microsecond
)

// Until blocks until the wall clock reads t or later. A t that is already
// due returns at once after one reading of the monotonic clock (for a t
// derived from time.Now): no lock, no allocation, no pacer.
func Until(t time.Time) {
	if time.Until(t) > 0 {
		ch := make(chan struct{})
		global.at(t, func() { close(ch) })
		<-ch
	}
}

// At runs fn once the wall clock reads t: on the caller, before At returns,
// when t is already due, and otherwise on the pacer goroutine at t.
func At(t time.Time, fn func()) {
	if time.Until(t) > 0 {
		global.at(t, fn)
	} else {
		fn()
	}
}

// waiter is one callback the pacer runs at its deadline.
type waiter struct {
	at time.Time
	fn func()
}

// deadlines is a min-heap of waiters by deadline.
type deadlines []*waiter

func (h deadlines) Len() int           { return len(h) }
func (h deadlines) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h deadlines) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deadlines) Push(x any)        { *h = append(*h, x.(*waiter)) }
func (h *deadlines) Pop() any {
	old := *h
	n := len(old) - 1
	w := old[n]
	old[n] = nil
	*h = old[:n]
	return w
}

// pacer is the deadline heap and the one goroutine that serves it. The
// goroutine starts with the first wait that is not already due and lives as
// long as the process: a process that has modelled waits keeps having them.
type pacer struct {
	start sync.Once
	mu    sync.Mutex
	heap  deadlines
	w     waker // what the goroutine parks on; armed under mu
	// due holds the callbacks one release runs; the pacer goroutine's own.
	due []func()
}

var global pacer

// waker is the pacer's one platform fork (newWaker, in sleep_*.go): wait
// returns once the wake-up armed last is due. One that comes early or twice
// is harmless, because the pacer rereads the clock.
type waker interface {
	arm(d time.Duration)
	wait()
}

// timerWaker is a runtime timer, where there is no timerfd: deadlines are then
// kept to the runtime's accuracy. Its first expiry, an hour out, is spurious.
type timerWaker struct{ t *time.Timer }

func (w timerWaker) arm(d time.Duration) { w.t.Reset(d) }
func (w timerWaker) wait()               { <-w.t.C }

func (p *pacer) at(t time.Time, fn func()) {
	p.start.Do(func() { p.w = newWaker(); go p.run() })
	w := &waiter{at: t, fn: fn}
	p.mu.Lock()
	heap.Push(&p.heap, w)
	if p.heap[0] == w {
		p.arm(time.Until(t))
	}
	p.mu.Unlock()
}

// arm sets the wake-up for an earliest deadline next away: coarse before it,
// then a slice at a time. Called under mu.
func (p *pacer) arm(next time.Duration) {
	if next > coarse {
		p.w.arm(next - coarse)
	} else {
		p.w.arm(max(min(next, slice), 1)) // 0 would disarm a timerfd
	}
}

// release runs every callback due at now, after letting go of the heap lock,
// having armed the wake-up for the deadline after them. Nobody waiting leaves
// it unarmed: the wake-up that brought the pacer here was the last one.
func (p *pacer) release(now time.Time) {
	p.mu.Lock()
	for len(p.heap) > 0 && !p.heap[0].at.After(now) {
		p.due = append(p.due, heap.Pop(&p.heap).(*waiter).fn)
	}
	if len(p.heap) > 0 {
		p.arm(p.heap[0].at.Sub(now))
	}
	p.mu.Unlock()
	for _, fn := range p.due {
		fn()
	}
	clear(p.due)
	p.due = p.due[:0]
}

func (p *pacer) run() {
	for {
		p.release(time.Now())
		p.w.wait()
	}
}
