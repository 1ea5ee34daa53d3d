// Package pace keeps wall-clock deadlines to well under a millisecond.
//
// An idle Go runtime parks in epoll_wait, whose timeout is whole
// milliseconds, so a runtime timer (time.Sleep, time.After) that fires into
// an idle process is late by up to one: on the 2-vCPU reference host a
// 0.2–5.3 ms time.Sleep overshoots by 0.94–1.01 ms at the median, where the
// kernel's own high-resolution sleep, on a thread whose timer slack is at its
// minimum, overshoots by 0.05 (DESIGN.md, "Modelled time"). Until is the wait
// that does not pay that millisecond: every waiter of the process registers
// its deadline with one pacer goroutine, which trusts a runtime timer only to
// within coarse of the earliest deadline and covers the rest with the kernel
// sleep, a slice at a time. It never spins, holds one thread however many
// goroutines wait, and is not involved at all in a wait that is already due.
// What it costs is CPU: a kernel sleep is a sleep/wake cycle, so a paced wait
// takes some 0.1 ms of CPU more than the time.Sleep it replaces.
//
// Its one kind of waiter is a callback, run outside the heap lock (it may
// call At) and never blocking (later deadlines wait behind it); Until is At
// plus a channel. Both are wall time only: model time (agent.Clock) is built
// on At, and a load generator pacing its own sends can use Until directly.
package pace

import (
	"container/heap"
	"runtime"
	"sync"
	"time"
)

const (
	// coarse is how close to a deadline a runtime timer may bring the pacer:
	// its worst overshoot into an idle runtime is one epoll_wait millisecond,
	// and a quarter more covers the reschedule after it, so a timer aimed
	// coarse early has always fired by the deadline. Below one millisecond
	// the timer would eat the deadline on its own; much above, the pacer
	// takes fine slices for time a timer would have covered for nothing.
	coarse = 1250 * time.Microsecond
	// slice bounds one kernel sleep. The pacer cannot be interrupted inside
	// it, so it is the most a waiter that registers an earlier deadline
	// meanwhile can be released late; five wake-ups a millisecond, and only
	// in the last coarse before a deadline, is what that costs.
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
	// wake tells a pacer that is idle or behind a runtime timer that the
	// earliest deadline changed; one pending token is all it needs.
	wake chan struct{}
	// due holds the callbacks one release runs; the pacer goroutine's own.
	due []func()
}

var global = pacer{wake: make(chan struct{}, 1)}

func (p *pacer) at(t time.Time, fn func()) {
	p.start.Do(func() { go p.run() })
	w := &waiter{at: t, fn: fn}
	p.mu.Lock()
	heap.Push(&p.heap, w)
	earliest := p.heap[0] == w
	p.mu.Unlock()
	if earliest {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// release runs every callback due at now, after letting go of the heap lock,
// and reports whether there was one and, when there was not, how long until
// the next deadline (negative: nobody waits).
func (p *pacer) release(now time.Time) (released bool, next time.Duration) {
	p.mu.Lock()
	for len(p.heap) > 0 && !p.heap[0].at.After(now) {
		p.due = append(p.due, heap.Pop(&p.heap).(*waiter).fn)
	}
	next = -1
	if len(p.heap) > 0 {
		next = p.heap[0].at.Sub(now)
	}
	p.mu.Unlock()
	for _, fn := range p.due {
		fn()
	}
	clear(p.due)
	released, p.due = len(p.due) > 0, p.due[:0]
	return released, next
}

func (p *pacer) run() {
	// The kernel sleep blocks its thread. A thread of the goroutine's own
	// can have its timer slack tightened once and for all, and measured both
	// closer to the deadline and cheaper than sleeping on whichever thread
	// the scheduler lends (DESIGN.md).
	runtime.LockOSThread()
	sleepFine := fineSleeper()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		released, next := p.release(time.Now())
		switch {
		case released:
			// What the callbacks woke sits on this thread's run queue: let it
			// run before the thread blocks in the kernel again, then look again.
			runtime.Gosched()
		case next < 0:
			<-p.wake
		case next > coarse:
			// go.mod says go 1.22: timer channels are buffered, so a timer
			// that fired while being stopped must be drained before Reset.
			timer.Reset(next - coarse)
			select {
			case <-timer.C:
			case <-p.wake:
				if !timer.Stop() {
					<-timer.C
				}
			}
		default:
			sleepFine(min(next, slice))
		}
	}
}
