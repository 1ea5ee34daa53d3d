//go:build !linux

package pace

import "time"

func newWaker() waker { return timerWaker{time.NewTimer(time.Hour)} }
