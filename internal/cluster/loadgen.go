package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"edgesurgeon/internal/client"
	"edgesurgeon/internal/stats"
)

// Workers is Drive's closed-loop client concurrency: each worker owns one
// connection and keeps exactly one request in flight.
const Workers = 4

// Result is the honest wall-clock outcome of one load run. Latencies are
// wall seconds (what a client actually waited), not model seconds — divide
// by the cluster's TimeScale to compare against plan latencies.
type Result struct {
	Sent, OK, Failed int
	// P50 and P99 are wall-clock response-latency quantiles in seconds.
	P50, P99 float64
	// Crossed counts responses served via an agent handoff.
	Crossed int
}

// OKFrac is the fraction of sent requests that completed StatusOK.
func (r *Result) OKFrac() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.OK) / float64(r.Sent)
}

// Drive runs a closed loop of requests spread over the workers against the
// cluster's dispatcher and reports the outcome and latency quantiles. Each
// worker is one internal/client connection keeping a single request in
// flight.
func Drive(addr string, nUsers, requests int) (*Result, error) {
	if requests <= 0 {
		return nil, fmt.Errorf("cluster: drive needs a positive request count")
	}
	if nUsers <= 0 {
		return nil, fmt.Errorf("cluster: drive needs at least one user")
	}
	workers := min(Workers, requests)

	var (
		mu        sync.Mutex
		latencies stats.Series
		res       Result
		firstErr  error
	)
	perWorker := make([]int, workers)
	for i := 0; i < requests; i++ {
		perWorker[i%workers]++
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			lats, ok, failed, crossed, err := runWorker(addr, w, n, nUsers)
			mu.Lock()
			defer mu.Unlock()
			latencies.Merge(&lats)
			res.Sent += n
			res.OK += ok
			res.Failed += failed
			res.Crossed += crossed
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(w, perWorker[w])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res.P50, res.P99 = latencies.P50(), latencies.P99()
	return &res, nil
}

// runWorker is one closed-loop client: request, await, repeat. A non-OK
// status counts as failed and the worker continues; transport loss fails the
// worker's remaining budget and surfaces the error.
func runWorker(addr string, worker, n, users int) (lats stats.Series, ok, failed, crossed int, err error) {
	c, err := client.Dial(addr, client.Config{
		ID:     fmt.Sprintf("loadgen-%d", worker),
		Window: 1, // closed loop: exactly one request in flight
	})
	if err != nil {
		return lats, 0, n, 0, err
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		user := (worker + i) % users
		t0 := time.Now()
		resp, derr := c.Do(context.Background(), user)
		if derr != nil {
			var se *client.StatusError
			if errors.As(derr, &se) {
				failed++
				continue
			}
			return lats, ok, failed + (n - i), crossed, derr
		}
		lats.Add(time.Since(t0).Seconds())
		ok++
		if resp.Server >= 0 {
			crossed++
		}
	}
	return lats, ok, failed, crossed, nil
}
