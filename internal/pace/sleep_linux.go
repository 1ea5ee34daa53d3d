//go:build linux

package pace

import (
	"syscall"
	"time"
)

// fineSleeper returns the kernel's high-resolution sleep for the calling
// thread, which the caller keeps (LockOSThread). The kernel may fire a
// thread's timers late by its timer slack, 50 µs unless told otherwise, to
// batch wake-ups; this thread exists to wake on time, so its slack goes to
// the minimum first — half of what a paced wait would otherwise be late by.
// An early return from the sleep (a signal) is harmless: the pacer rereads
// the clock.
func fineSleeper() func(time.Duration) {
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
	return func(d time.Duration) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}
