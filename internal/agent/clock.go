package agent

import (
	"math"
	"time"

	"edgesurgeon/internal/pace"
)

// Clock is model time: the one clock every modelled wait of the plane is on.
// A stage does not sleep for its duration; it computes the model instant at
// which it ends, from the instant the request arrived, and schedules what
// follows at that instant. Lateness in one stage (a scheduler hiccup, a
// timer's overshoot) then comes out of the next one instead of being added
// to it, and the stage seconds a response reports are differences of model
// instants, not measurements.
//
// Both Config and DispatcherConfig carry one; every binary leaves it nil and
// gets the wall clock scaled by TimeScale. The interface exists so a test can
// put the plane on a clock it advances by hand (fakeClock in the tests); it
// has sim.Engine's shape.
type Clock interface {
	// Now is the current model instant, in model-seconds from an origin of
	// the clock's choosing.
	Now() float64
	// At runs fn once Now() >= t: on the caller, before At returns, if it
	// already is, and otherwise later on a goroutine of the clock's. fn must
	// not block; it may call At.
	At(t float64, fn func())
}

// wallClock is model time as scaled wall time: scale wall-seconds to the
// model-second, counted from the clock's creation. Deadlines are kept by
// pace.At, whose goroutine parks in the poller on a kernel timer, and one
// that is already due — every stage at the benchmark's zero-physics scale —
// costs two clock readings and runs on the caller.
type wallClock struct {
	origin time.Time
	scale  float64
}

func newWallClock(timeScale float64) *wallClock {
	return &wallClock{origin: time.Now(), scale: timeScale}
}

// scaleOrOne is a configured TimeScale, or 1 (real time) when it is not > 0.
func scaleOrOne(timeScale float64) float64 {
	if timeScale > 0 {
		return timeScale
	}
	return 1
}

// orWall is the configured clock, or the wall clock at timeScale when the
// configuration leaves it nil.
func orWall(c Clock, timeScale float64) Clock {
	if c == nil {
		return newWallClock(timeScale)
	}
	return c
}

func (c *wallClock) Now() float64 { return time.Since(c.origin).Seconds() / c.scale }

func (c *wallClock) At(t float64, fn func()) {
	// Rounded up, so that Now() >= t holds when fn runs.
	pace.At(c.origin.Add(time.Duration(math.Ceil(t*c.scale*float64(time.Second)))), fn)
}
