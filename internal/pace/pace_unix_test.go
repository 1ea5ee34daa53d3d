//go:build unix

package pace

import (
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
