//go:build unix

package pace

import (
	"io"
	"net"
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"
)

// TestNoBusyWait: a waiter every 10 ms for 300 ms is 30 coarse timers and
// some 200 slices. A pacer that spun through only the last coarse of each
// wait would burn 30 × 1.25 ms = 37 ms of CPU. Whatever else the host is
// doing only adds to what rusage charges, so the best of a few attempts is
// the pacer's own cost; a spin fails them all.
func TestNoBusyWait(t *testing.T) {
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Skip(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	Until(time.Now().Add(time.Millisecond)) // the pacer is running
	best := time.Hour
	for attempt := 0; attempt < 5 && best >= 15*time.Millisecond; attempt++ {
		before, at := cpu(), time.Now()
		for i := 0; i < 30; i++ {
			at = at.Add(10 * time.Millisecond)
			Until(at)
		}
		best = min(best, cpu()-before)
	}
	t.Logf("30 waits burned %v of CPU", best)
	if best >= 15*time.Millisecond {
		t.Errorf("30 waits burned %v of CPU, want < 15ms", best)
	}
}

// TestEchoBesidePacedWaits: with one P, a goroutine keeping paced deadlines
// 1–3 ms ahead must leave that P to the rest of the process between its
// releases, sockets polled included. An 8-byte loopback echo with 0.5 ms idle
// between pings runs beside it for about 2 s. A pacer that sleeps in the
// kernel on its own thread keeps the only P through every sleep, and the
// echo's p90 round trip grows to the better part of a millisecond; one parked
// in the runtime poller leaves it at tens of microseconds.
func TestEchoBesidePacedWaits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var buf [8]byte
		for {
			if _, err := io.ReadFull(c, buf[:]); err != nil {
				return
			}
			if _, err := c.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	defer keepPacing()()
	var rtt []time.Duration
	var buf [8]byte
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); {
		time.Sleep(500 * time.Microsecond)
		t0 := time.Now()
		if _, err := c.Write(buf[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf[:]); err != nil {
			t.Fatal(err)
		}
		rtt = append(rtt, time.Since(t0))
	}

	sort.Slice(rtt, func(i, j int) bool { return rtt[i] < rtt[j] })
	p50, p90, p99 := rtt[len(rtt)/2], rtt[len(rtt)*9/10], rtt[len(rtt)*99/100]
	t.Logf("echo round trip over %d pings beside paced waits: p50 %v, p90 %v, p99 %v", len(rtt), p50, p90, p99)
	if p90 > 300*time.Microsecond {
		t.Errorf("echo round trip p90 %v beside paced waits at one P, want <= 300µs", p90)
	}
}
