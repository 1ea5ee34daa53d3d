package pace

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestManyWaitersNoneEarly: 2 000 goroutines wait for seeded random
// deadlines at once. Every one returns, none before its deadline, and the
// process grows by at most the thread or so the runtime felt like adding (the
// pacer parks in the poller and has no thread of its own), not by a thread
// per waiter. Whatever else the host is doing may make the runtime add a
// thread or two more, so a wave over the bound gets up to two more to average
// it out over. The runtime never gives a thread back and a later wave reuses
// what an earlier one created, so the bound is on the growth over all the
// waves run, not on the best one: a thread per waiter grows by hundreds in
// the first wave and fails however many follow.
func TestManyWaitersNoneEarly(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(1))
	var early []time.Duration
	wave := func(n int) {
		base := time.Now().Add(5 * time.Millisecond)
		early = make([]time.Duration, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			at := base.Add(time.Duration(rng.Int63n(int64(40 * time.Millisecond))))
			wg.Add(1)
			go func() {
				defer wg.Done()
				Until(at)
				early[i] = time.Until(at)
			}()
		}
		wg.Wait()
	}
	wave(50) // the threads the runtime starts for this load exist before the count
	threads := pprof.Lookup("threadcreate")
	before, waves := threads.Count(), 0
	for waves == 0 || waves < 3 && threads.Count()-before > 2*waves {
		wave(n)
		waves++
		for i, d := range early {
			if d > 0 {
				t.Errorf("waiter %d returned %v before its deadline", i, d)
			}
		}
	}
	if grew := threads.Count() - before; grew > 2*waves {
		t.Errorf("%d threads created for %d waves of %d waiters, want <= 2 a wave", grew, waves, n)
	}
}

// TestEarlierDeadlineWhileSlicing: the pacer is inside its slices for a
// deadline 1.2 ms out when, 400 µs in, a second waiter asks for 300 µs. The
// newcomer is the earliest deadline, so it re-arms the pacer's timer at once
// and is released as late as any paced wait; a pacer that slept through to
// the far deadline would release it 500 µs late, and one that noticed it only
// at its next slice up to a slice late.
func TestEarlierDeadlineWhileSlicing(t *testing.T) {
	late := make([]time.Duration, 0, 20)
	for i := 0; i < cap(late); i++ {
		done := make(chan struct{})
		t0 := time.Now()
		far := t0.Add(1200 * time.Microsecond) // < coarse: slices from the start
		go func() { Until(far); close(done) }()
		// Yield, without sleeping, until the pacer has woken and is slicing.
		for time.Since(t0) < 400*time.Microsecond {
			runtime.Gosched()
		}
		near := time.Now().Add(300 * time.Microsecond)
		if far.Sub(near) < 400*time.Microsecond {
			<-done
			continue // the host stalled this goroutine; the round shows nothing
		}
		Until(near)
		late = append(late, time.Since(near))
		<-done
	}
	if len(late) < cap(late)/2 {
		t.Skipf("only %d of %d rounds ran undisturbed", len(late), cap(late))
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	p50 := late[len(late)/2]
	t.Logf("earlier deadline released %v late at the median of %d rounds", p50, len(late))
	if p50 < 0 || p50 > 350*time.Microsecond {
		t.Errorf("earlier deadline released %v late at the median, want within a slice (%v) and its overshoot", p50, slice)
	}
}

// TestDueDeadlineSkipsThePacer: a wait that is already due (zero physics)
// touches neither the heap nor the allocator, and a due callback runs on the
// caller before At returns.
func TestDueDeadlineSkipsThePacer(t *testing.T) {
	past := time.Now()
	if n := testing.AllocsPerRun(1000, func() { Until(past) }); n != 0 {
		t.Errorf("a due wait allocates %v times, want 0", n)
	}
	ran := false
	At(past, func() { ran = true })
	if !ran {
		t.Error("a due callback had not run when At returned")
	}
}

// TestCallbackSchedulesAt: a callback that schedules more work — one At
// already due, one due before the pacer's next deadline — neither deadlocks
// the pacer nor is released early. The pacer runs callbacks after letting go
// of its heap lock; one run under it would hang on the second At.
func TestCallbackSchedulesAt(t *testing.T) {
	type release struct {
		name  string
		early time.Duration // > 0: released before its deadline
	}
	got := make(chan release, 4)
	at := func(name string, deadline time.Time, then func()) {
		At(deadline, func() {
			got <- release{name, time.Until(deadline)}
			if then != nil {
				then()
			}
		})
	}
	far := time.Now().Add(60 * time.Millisecond) // the pacer's next deadline
	at("far", far, nil)
	at("first", time.Now().Add(2*time.Millisecond), func() {
		at("due", time.Now(), nil)
		at("near", time.Now().Add(5*time.Millisecond), nil)
	})
	var order []string
	for range 4 {
		select {
		case r := <-got:
			if r.early > 0 {
				t.Errorf("%s released %v before its deadline", r.name, r.early)
			}
			order = append(order, r.name)
		case <-time.After(5 * time.Second):
			t.Fatalf("released %v, then nothing: the pacer is stuck", order)
		}
	}
	if fmt.Sprint(order) != "[first due near far]" {
		t.Errorf("released in the order %v, want [first due near far]", order)
	}
}

// TestTimerWaker: the runtime-timer waker, what the pacer parks on where
// there is no timerfd, serves a pacer of its own: waiters registered
// farthest first are released nearest first, and none early.
func TestTimerWaker(t *testing.T) {
	p := &pacer{}
	p.start.Do(func() { p.w = timerWaker{time.NewTimer(time.Hour)}; go p.run() })
	type release struct {
		ms    int
		early time.Duration // > 0: released before its deadline
	}
	got := make(chan release, 3)
	base := time.Now()
	for _, ms := range []int{9, 6, 3} {
		at := base.Add(time.Duration(ms) * time.Millisecond)
		p.at(at, func() { got <- release{ms, time.Until(at)} })
	}
	var order []int
	for range 3 {
		select {
		case r := <-got:
			if r.early > 0 {
				t.Errorf("the %d ms waiter was released %v early", r.ms, r.early)
			}
			order = append(order, r.ms)
		case <-time.After(5 * time.Second):
			t.Fatalf("released %v, then nothing: the pacer is stuck", order)
		}
	}
	if fmt.Sprint(order) != "[3 6 9]" {
		t.Errorf("released in the order %v, want [3 6 9]", order)
	}
}

// keepPacing starts a goroutine that waits on Until deadlines 1–3 ms ahead,
// one after the other, as a paced process does between requests; the
// returned func stops it and waits for it to return.
func keepPacing() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-quit:
				return
			default:
				Until(time.Now().Add(time.Millisecond + time.Duration(rng.Int63n(int64(2*time.Millisecond)))))
			}
		}
	}()
	return func() { close(quit); <-done }
}

// BenchmarkClockWait measures how late a wait returns. Each iteration idles
// for 2 ms first, so the wait starts in a runtime that has parked, as a
// request does that arrives at a paced plane. ns/op includes the idle gap
// and the wait itself; read overshoot-p50-us and overshoot-p99-us. The
// beside-pacer arm is the same time.Sleep while keepPacing runs: a runtime
// timer fires when the poller wakes, so it gains what the pacer's wake-ups
// give every timer of a paced process.
func BenchmarkClockWait(b *testing.B) {
	sleep := func(t time.Time) { time.Sleep(time.Until(t)) }
	for _, impl := range []struct {
		name   string
		wait   func(time.Time)
		beside bool
	}{
		{"pacer", Until, false},
		{"timesleep", sleep, false},
		{"timesleep/beside-pacer", sleep, true},
	} {
		for _, d := range []time.Duration{200 * time.Microsecond, 1300 * time.Microsecond, 5300 * time.Microsecond} {
			b.Run(fmt.Sprintf("%s/%v", impl.name, d), func(b *testing.B) {
				if impl.beside {
					defer keepPacing()()
				}
				over := make([]float64, b.N)
				for i := range over {
					time.Sleep(2 * time.Millisecond)
					at := time.Now().Add(d)
					impl.wait(at)
					over[i] = float64(time.Since(at)) / 1e3
				}
				sort.Float64s(over)
				b.ReportMetric(over[len(over)/2], "overshoot-p50-us")
				b.ReportMetric(over[len(over)*99/100], "overshoot-p99-us")
			})
		}
	}
}
