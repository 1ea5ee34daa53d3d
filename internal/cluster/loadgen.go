package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"edgesurgeon/internal/client"
)

// DriveConfig describes one closed-loop load run against a cluster.
type DriveConfig struct {
	// Requests is the total request count across all workers.
	Requests int
	// Workers is the closed-loop client concurrency (each worker owns one
	// connection and keeps exactly one request in flight); 0 means 4.
	Workers int
}

// Result is the honest wall-clock outcome of one load run. Latencies are
// wall seconds (what a client actually waited), not model seconds — divide
// by the cluster's TimeScale to compare against plan latencies.
type Result struct {
	Sent, OK, Failed int
	// Elapsed is the wall time from first send to last response.
	Elapsed time.Duration
	// RPS is OK responses per wall second.
	RPS float64
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

// Drive runs a closed-loop workload against the cluster's dispatcher and
// reports throughput and latency quantiles. Each worker is one
// internal/client connection keeping a single request in flight.
func Drive(addr string, nUsers int, cfg DriveConfig) (*Result, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("cluster: drive needs a positive request count")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	if workers > cfg.Requests {
		workers = cfg.Requests
	}
	if nUsers <= 0 {
		return nil, fmt.Errorf("cluster: drive needs at least one user")
	}

	var (
		mu        sync.Mutex
		latencies []float64
		res       Result
		firstErr  error
	)
	perWorker := make([]int, workers)
	for i := 0; i < cfg.Requests; i++ {
		perWorker[i%workers]++
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			lats, ok, failed, crossed, err := runWorker(addr, w, n, nUsers)
			mu.Lock()
			defer mu.Unlock()
			latencies = append(latencies, lats...)
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
	res.Elapsed = time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	if res.Elapsed > 0 {
		res.RPS = float64(res.OK) / res.Elapsed.Seconds()
	}
	sort.Float64s(latencies)
	res.P50 = quantile(latencies, 0.50)
	res.P99 = quantile(latencies, 0.99)
	return &res, nil
}

// runWorker is one closed-loop client: request, await, repeat. A non-OK
// status counts as failed and the worker continues; transport loss fails the
// worker's remaining budget and surfaces the error.
func runWorker(addr string, worker, n, users int) (lats []float64, ok, failed, crossed int, err error) {
	c, err := client.Dial(addr, client.Config{
		ID:     fmt.Sprintf("loadgen-%d", worker),
		Window: 1, // closed loop: exactly one request in flight
	})
	if err != nil {
		return nil, 0, n, 0, err
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
		lats = append(lats, time.Since(t0).Seconds())
		ok++
		if resp.Server >= 0 {
			crossed++
		}
	}
	return lats, ok, failed, crossed, nil
}

// quantile returns the q-quantile of sorted values (0 for empty input).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
