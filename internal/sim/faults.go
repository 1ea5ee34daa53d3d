package sim

import (
	"math"

	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/netmodel"
)

// FailCause labels why a task failed.
type FailCause string

const (
	// CauseNone marks a successful task.
	CauseNone FailCause = ""
	// CauseServerCrash marks a task whose server-compute retries were
	// exhausted by crash windows.
	CauseServerCrash FailCause = "server-crash"
	// CauseLinkOutage marks a task whose uplink retransmissions were
	// exhausted by outage windows.
	CauseLinkOutage FailCause = "link-outage"
	// CauseTimeout marks a task that exceeded its per-task budget
	// (RetryPolicy.TaskTimeout) before completing.
	CauseTimeout FailCause = "timeout"
)

// A fault-interrupted stage is tried at most maxAttempts times; the first
// retry waits retryBackoff seconds past recovery, and each later one twice the
// delay before it.
const (
	maxAttempts  = 3
	retryBackoff = 0.05
)

// backoff returns the delay before retry number `retry` (1-based).
func backoff(retry int) float64 { return math.Ldexp(retryBackoff, retry-1) }

// RetryPolicy bounds how much time a fault may cost one task: each fault-
// interrupted stage is retried with exponential backoff up to maxAttempts,
// and the whole task is abandoned TaskTimeout seconds after arrival. The
// zero value sets no task timeout.
type RetryPolicy struct {
	// TaskTimeout is the per-task wall budget in seconds measured from
	// arrival; a task still unfinished at arrival+TaskTimeout fails with
	// CauseTimeout. 0 disables the timeout.
	TaskTimeout float64
}

// timeoutAt returns the absolute abandon time for a task arriving at t.
func (p RetryPolicy) timeoutAt(arrival float64) float64 {
	if p.TaskTimeout <= 0 {
		return math.Inf(1)
	}
	return arrival + p.TaskTimeout
}

// computeStage returns how long a server-compute job submitted at start
// occupies its lane under the fault schedule, and why it failed (CauseNone
// on success). workSec is the service demand in lane-seconds (the caller
// has already divided by the user's share where applicable). Crash windows
// lose all progress — the job restarts after recovery plus backoff, up to
// the attempt budget — while brown-outs merely stretch service.
// On failure the returned duration runs to the abort instant, so the lane
// stays occupied exactly as long as the doomed job really held it.
func computeStage(f *faults.Schedule, server int, start, workSec, timeoutAt float64) (float64, FailCause) {
	if start >= timeoutAt {
		return 0, CauseTimeout
	}
	attempt := 1
	t := start
	for {
		if !f.ServerUp(server, t) {
			rec := f.ServerRecovery(server, t)
			if rec >= timeoutAt {
				return timeoutAt - start, CauseTimeout
			}
			t = rec
		}
		remaining := workSec
		crashed := false
		for {
			factor := f.CapacityFactor(server, t)
			boundary := f.NextComputeChange(server, t)
			if factor > 0 && t+remaining/factor <= math.Min(boundary, timeoutAt) {
				return t - start + remaining/factor, CauseNone
			}
			if boundary >= timeoutAt {
				return timeoutAt - start, CauseTimeout
			}
			if factor > 0 {
				remaining -= (boundary - t) * factor
			}
			t = boundary
			if !f.ServerUp(server, t) {
				crashed = true
				break
			}
			// Brown-out edge: capacity changed, progress kept.
		}
		if crashed {
			attempt++
			if attempt > maxAttempts {
				return t - start, CauseServerCrash
			}
			rec := f.ServerRecovery(server, t) + backoff(attempt-1)
			if rec >= timeoutAt {
				return timeoutAt - start, CauseTimeout
			}
			t = rec
		}
	}
}

// txStage returns how long an uplink transfer submitted at start occupies
// its lane under the fault schedule, and why it failed. The sender holds the
// fraction share of the link (clamped at 1). It integrates the (possibly
// time-varying) link rate exactly, segment by segment, but an outage
// beginning mid-transfer aborts the attempt — progress is lost and the
// transfer restarts from scratch after restoration plus backoff. One RTT of
// protocol latency is charged on the successful attempt.
func txStage(f *faults.Schedule, server int, link netmodel.Link, bytes int64, start, share, timeoutAt float64) (float64, FailCause) {
	if start >= timeoutAt {
		return 0, CauseTimeout
	}
	if share > 1 {
		share = 1
	}
	attempt := 1
	t := start
	for {
		if !f.LinkUp(server, t) {
			res := f.LinkRestore(server, t)
			if res >= timeoutAt {
				return timeoutAt - start, CauseTimeout
			}
			t = res
		}
		remaining := float64(bytes) * 8 // bits
		dropped := false
		for {
			rate := link.RateAt(t) * share
			boundary := math.Min(link.NextChange(t), f.NextLinkChange(server, t))
			if rate > 0 && t+remaining/rate <= math.Min(boundary, timeoutAt) {
				d := t - start + remaining/rate + link.RTT()
				if start+d >= timeoutAt {
					return timeoutAt - start, CauseTimeout
				}
				return d, CauseNone
			}
			if boundary >= timeoutAt {
				return timeoutAt - start, CauseTimeout
			}
			if rate > 0 {
				remaining -= rate * (boundary - t)
			}
			t = boundary
			if !f.LinkUp(server, t) {
				dropped = true
				break
			}
			// Link-rate segment edge: progress kept.
		}
		if dropped {
			attempt++
			if attempt > maxAttempts {
				return t - start, CauseLinkOutage
			}
			res := f.LinkRestore(server, t) + backoff(attempt-1)
			if res >= timeoutAt {
				return timeoutAt - start, CauseTimeout
			}
			t = res
		}
	}
}
