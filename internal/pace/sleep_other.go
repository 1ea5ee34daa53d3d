//go:build !linux

package pace

import "time"

// fineSleeper falls back to the runtime timer where the kernel sleep is not
// in package syscall; deadlines are then kept to the runtime's accuracy.
func fineSleeper() func(time.Duration) { return time.Sleep }
