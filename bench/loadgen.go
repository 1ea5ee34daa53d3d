package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// doer is the request library as the load generators see it; client.Client
// implements it, and the harness tests substitute a stub.
type doer interface {
	Do(ctx context.Context, user int) (*response, error)
}

// opRecord is one request's outcome.
type opRecord struct {
	// latNs is the wall time to the response: from the send in a closed
	// loop, from the intended send time in an open loop.
	latNs int64
	// lateNs is how long after its intended time an open-loop request was
	// actually sent (the generator's own lateness).
	lateNs int64
	// doneNs is when the response arrived, since the load phase began.
	doneNs int64
	// modelSec is Response.TotalSec, the modelled latency in model seconds.
	modelSec float64
	user     int32
	crossed  bool
	ok       bool
}

// loadResult is everything one load phase observed.
type loadResult struct {
	ops      []opRecord
	wall     time.Duration
	problems []string // failed output checks, first few only
	nProblem int
}

func (r *loadResult) problem(format string, args ...any) {
	r.nProblem++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *loadResult) merge(o *loadResult) {
	r.ops = append(r.ops, o.ops...)
	r.nProblem += o.nProblem
	for _, p := range o.problems {
		if len(r.problems) < 5 {
			r.problems = append(r.problems, p)
		}
	}
}

// checkResponse is the per-response output check: an OK response echoes its
// user and its stage times add up to its total.
func checkResponse(user int, resp *response) string {
	if resp.User != user {
		return fmt.Sprintf("response for user %d echoes user %d", user, resp.User)
	}
	sum := resp.DeviceSec + resp.UplinkSec + resp.QueueSec + resp.ServerSec
	if math.Abs(resp.TotalSec-sum) > 1e-9*math.Max(1, math.Abs(sum)) {
		return fmt.Sprintf("user %d: TotalSec %g != stage sum %g", user, resp.TotalSec, sum)
	}
	return ""
}

// loadTrace switches span recording on for a load phase. timeScale turns
// the response's modelled stage times into wall durations; perWorker bounds
// the requests each generator goroutine traces.
type loadTrace struct {
	rec       *recorder
	timeScale float64
	perWorker int
}

// requestSpans renders one request as a root span from its intended send to
// its response, with the modelled stages as synthesised children laid end to
// end from the actual send: the root's self time is then exactly the wall
// time the model does not account for — the system's overhead.
func (lt *loadTrace) requestSpans(user int, intended, sent, done time.Time, resp *response) []span {
	rec := lt.rec
	root := span{
		ID: rec.id(), Name: "client.Do", Layer: "client",
		Start: rec.at(intended), End: rec.at(done),
		Attrs: map[string]any{"user": user, "late_ns": int64(sent.Sub(intended))},
	}
	root.Req = root.ID
	spans := []span{root}
	if resp == nil {
		spans[0].Attrs["failed"] = true
		return spans
	}
	spans[0].Attrs["crossed"] = resp.Server >= 0
	cursor := rec.at(sent)
	for _, stage := range []struct {
		name string
		sec  float64
	}{
		{"model.device", resp.DeviceSec}, {"model.uplink", resp.UplinkSec},
		{"model.queue", resp.QueueSec}, {"model.server", resp.ServerSec},
	} {
		d := int64(stage.sec * lt.timeScale * 1e9)
		if d <= 0 {
			continue
		}
		spans = append(spans, span{
			ID: rec.id(), Parent: root.ID, Req: root.ID, Name: stage.name, Layer: "model",
			Start: cursor, End: cursor + d,
		})
		cursor += d
	}
	return spans
}

// issue sends one request and turns the outcome into a record: the output
// check's complaint, if any, and — when lt is set — the request's spans.
func issue(ctx context.Context, d doer, user int, phaseStart, intended time.Time, lt *loadTrace) (rec opRecord, problem string, spans []span) {
	sent := time.Now()
	resp, err := d.Do(ctx, user)
	done := time.Now()
	rec = opRecord{latNs: int64(done.Sub(intended)), lateNs: int64(sent.Sub(intended)), doneNs: int64(done.Sub(phaseStart)), user: int32(user)}
	if err == nil && resp.Status == statusOK {
		rec.ok, rec.crossed, rec.modelSec = true, resp.Server >= 0, resp.TotalSec
		problem = checkResponse(user, resp)
	} else {
		resp = nil
		problem = fmt.Sprintf("user %d: request failed: %v", user, err)
	}
	if lt != nil {
		spans = lt.requestSpans(user, intended, sent, done, resp)
	}
	return rec, problem, spans
}

// closedLoop keeps inflight requests outstanding on every connection for
// dur: each of its goroutines sends its next request only when the previous
// one has been answered, so a slower system receives less load. pick chooses
// the user of a worker's i-th request.
func closedLoop(ctx context.Context, conns []doer, inflight int, dur time.Duration, pick func(worker, i int) int, lt *loadTrace) *loadResult {
	workers := len(conns) * inflight
	parts := make([]loadResult, workers)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d, part := conns[w%len(conns)], &parts[w]
			part.ops = make([]opRecord, 0, 1<<14)
			var spans []span
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				tracing := lt
				if lt != nil && i >= lt.perWorker {
					tracing = nil
				}
				rec, problem, s := issue(ctx, d, pick(w, i), start, time.Now(), tracing)
				part.ops = append(part.ops, rec)
				if problem != "" {
					part.problem("%s", problem)
				}
				spans = append(spans, s...)
			}
			if lt != nil {
				lt.rec.add(spans...)
			}
		}(w)
	}
	wg.Wait()
	total := &loadResult{wall: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// openLoop sends ratePerConn requests per second on every connection for
// dur on a fixed schedule, whether or not earlier requests have been
// answered — independent users, so a stall makes a queue, not a pause. Every
// request is timed from the instant it was due, which charges a stall to all
// the requests it delayed (no coordinated omission), and the generator's own
// lateness is recorded beside it. pick chooses the user of a connection's
// k-th request.
func openLoop(ctx context.Context, conns []doer, ratePerConn float64, dur time.Duration, pick func(conn, k int) int, lt *loadTrace) *loadResult {
	interval := time.Duration(float64(time.Second) / ratePerConn)
	perConn := int(dur / interval)
	parts := make([]loadResult, len(conns))
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			part := &parts[c]
			part.ops = make([]opRecord, perConn)
			var mu sync.Mutex // guards part.problems and spans
			var spans []span
			// Connections are phase-shifted so their sends interleave evenly.
			phase := interval * time.Duration(c) / time.Duration(len(conns))
			issued := 0
			var inflight sync.WaitGroup
			for ; issued < perConn && ctx.Err() == nil; issued++ {
				k := issued
				intended := start.Add(phase + interval*time.Duration(k))
				time.Sleep(time.Until(intended))
				tracing := lt
				if lt != nil && k >= lt.perWorker {
					tracing = nil
				}
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					rec, problem, s := issue(ctx, conns[c], pick(c, k), start, intended, tracing)
					part.ops[k] = rec
					if problem == "" && s == nil {
						return
					}
					mu.Lock()
					defer mu.Unlock()
					if problem != "" {
						part.problem("%s", problem)
					}
					spans = append(spans, s...)
				}()
			}
			inflight.Wait()
			part.ops = part.ops[:issued]
			if lt != nil {
				lt.rec.add(spans...)
			}
		}(c)
	}
	wg.Wait()
	total := &loadResult{wall: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}
