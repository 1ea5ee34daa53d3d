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
// process grows by the pacer's thread (and at most one the runtime felt like
// adding), not by a thread per waiter. Whatever else the host is doing may
// make the runtime add a thread or two more, so a wave over the bound gets up
// to two more to average it out over. The runtime never gives a thread back
// and a later wave reuses what an earlier one created, so the bound is on
// the growth over all the waves run, not on the best one: a thread per waiter
// grows by hundreds in the first wave and fails however many follow.
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
	wave(50) // the pacer's thread and the runtime's own exist before the count
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

// TestEarlierDeadlineWhileSlicing: the pacer is inside its fine slices for a
// deadline 1.2 ms out when, 400 µs in, a second waiter asks for 300 µs. The
// pacer cannot be interrupted there, so what keeps the newcomer on time is
// the slice length: a pacer that slept through to the far deadline would
// release it 500 µs late.
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

// BenchmarkClockWait measures how late a wait returns. Each iteration idles
// for 2 ms first, so the wait starts in a runtime that has parked, as a
// request does that arrives at a paced plane. ns/op includes the idle gap
// and the wait itself; read overshoot-p50-us and overshoot-p99-us.
func BenchmarkClockWait(b *testing.B) {
	for _, impl := range []struct {
		name string
		wait func(time.Time)
	}{
		{"pacer", Until},
		{"timesleep", func(t time.Time) { time.Sleep(time.Until(t)) }},
	} {
		for _, d := range []time.Duration{200 * time.Microsecond, 1300 * time.Microsecond, 5300 * time.Microsecond} {
			b.Run(fmt.Sprintf("%s/%v", impl.name, d), func(b *testing.B) {
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
