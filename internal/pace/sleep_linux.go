//go:build linux

package pace

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfd is a CLOCK_MONOTONIC timerfd the runtime poller watches: wait parks
// the pacer goroutine in a Read, holding no thread and no P, and the kernel
// timer behind it has no slack. The fd is kept beside the File, whose Fd
// method would make it blocking.
type timerfd struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

// newWaker falls back to a runtime timer in a process that has no file
// descriptor left for the timerfd.
func newWaker() waker {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return timerWaker{time.NewTimer(time.Hour)}
	}
	return &timerfd{fd: fd, f: os.NewFile(fd, "pace-timerfd")}
}

// arm sets the one-shot timer d from now, dropping an expiry not yet read.
// Two syscall.Timespec values make the itimerspec of 32- and 64-bit Linux.
func (w *timerfd) arm(d time.Duration) {
	its := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
}

// wait returns once the timer set last has expired.
func (w *timerfd) wait() {
	if _, err := w.f.Read(w.buf[:]); err != nil {
		panic("pace: timerfd read: " + err.Error())
	}
}
