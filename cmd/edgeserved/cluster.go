package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"edgesurgeon/internal/cluster"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/serve"
)

// clusterOpts bundles the live-cluster (-listen) mode configuration.
type clusterOpts struct {
	listen          string
	agents          int
	agentBin        string
	requests        int
	workers         int
	timeScale       float64
	telemetryPeriod float64
	minOKFrac       float64
	frontier        bool
	seed            int64
	stallClients    int
	httpAddr        string
}

// runCluster boots the networked data plane for real: the wire dispatcher
// in-process on the listen address, one edgeagent child per edge server,
// telemetry flowing into the serve runtime under the chosen policy. With
// -requests > 0 it then drives a bounded closed-loop workload and gates the
// exit code on the ok-fraction — the `make cluster-smoke` CI mode. With
// -requests 0 it serves until interrupted, for manual clients.
func runCluster(sc *joint.Scenario, scenarioJSON []byte, policy serve.Policy, o clusterOpts) error {
	c, err := cluster.Start(cluster.Config{
		ScenarioJSON:    scenarioJSON,
		Agents:          o.agents,
		AgentBin:        o.agentBin,
		Listen:          o.listen,
		Policy:          policy,
		Frontier:        o.frontier,
		TimeScale:       o.timeScale,
		TelemetryPeriod: o.telemetryPeriod,
		Seed:            o.seed,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "edgeserved: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("cluster up: dispatcher at %s, %d servers, %d users\n",
		c.Addr(), len(sc.Servers), len(sc.Users))

	if o.httpAddr != "" {
		go func() {
			if err := serveHTTP(o.httpAddr, sc, c.Runtime); err != nil {
				fmt.Fprintf(os.Stderr, "edgeserved: http: %v\n", err)
			}
		}()
	}

	// Optional backpressure arm: stalled clients that handshake, fire a
	// request burst, and never read a response. The dispatcher must shed
	// their queued responses and eventually drop them without denting the
	// healthy drive below.
	for i := 0; i < o.stallClients; i++ {
		burst := o.requests
		if burst <= 0 {
			burst = 64
		}
		s, err := cluster.StartStalledClient(c.Addr(), burst, len(sc.Users))
		if err != nil {
			return fmt.Errorf("stalled client %d: %w", i, err)
		}
		defer s.Close()
	}

	if o.requests <= 0 {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("shutting down")
		return nil
	}

	res, err := cluster.Drive(c.Addr(), len(sc.Users), cluster.DriveConfig{
		Requests: o.requests, Workers: o.workers,
	})
	if err != nil {
		return err
	}
	okFrac := 0.0
	if res.Sent > 0 {
		okFrac = float64(res.OK) / float64(res.Sent)
	}
	reg := c.Runtime.Metrics()
	fmt.Printf("drive: %d sent, %d ok (%.1f%%), %d crossed agents, %.0f req/s wall\n",
		res.Sent, res.OK, 100*okFrac, res.Crossed, res.RPS)
	fmt.Printf("latency: p50 %.1f ms, p99 %.1f ms (model time)\n",
		res.P50/o.timeScale*1e3, res.P99/o.timeScale*1e3)
	fmt.Printf("control plane: %d full replans, %d alloc pushes, %d telemetry coalesced\n",
		c.Runtime.FullReplans(),
		reg.Counter("dataplane.alloc_pushes").Value(),
		reg.Counter("dataplane.telemetry_coalesced").Value())
	flushes := reg.Counter("dataplane.flushes").Value()
	fmt.Printf("outbox: %.2f frames per flush (%d flushes), %d responses shed, %d deadline trips, %d clients dropped\n",
		float64(reg.Counter("dataplane.frames_flushed").Value())/float64(max(flushes, 1)), flushes,
		reg.Counter("dataplane.client_shed").Value(),
		reg.Counter("dataplane.write_deadline_trips").Value(),
		reg.Counter("dataplane.clients_dropped").Value())
	if res.Crossed == 0 {
		return fmt.Errorf("no request crossed to an agent; the handoff path never ran")
	}
	if okFrac < o.minOKFrac {
		return fmt.Errorf("ok fraction %.3f below required %.3f", okFrac, o.minOKFrac)
	}
	return nil
}
