package main

import (
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"edgesurgeon/internal/cluster"
	"edgesurgeon/internal/joint"
)

// runCluster boots the networked data plane for real: the wire dispatcher
// in-process on the listen address, one edgeagent child per edge server,
// telemetry flowing into the serve runtime under the chosen policy. With
// -requests > 0 it then drives a bounded closed-loop workload and gates the
// exit code on the ok-fraction — the `make cluster-smoke` CI mode. With
// -requests 0 it serves until interrupted, for manual clients.
func runCluster(sc *joint.Scenario, cfg cluster.Config, requests int, minOKFrac float64, httpLn net.Listener) error {
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "edgeserved: "+format+"\n", args...)
	}
	c, err := cluster.Start(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("cluster up: dispatcher at %s, %d servers, %d users\n",
		c.Addr(), len(sc.Servers), len(sc.Users))

	if httpLn != nil {
		go func() {
			if err := serveHTTP(httpLn, sc, c.Runtime); err != nil {
				fmt.Fprintf(os.Stderr, "edgeserved: http: %v\n", err)
			}
		}()
	}

	if requests <= 0 {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("shutting down")
		return nil
	}

	res, err := cluster.Drive(c.Addr(), len(sc.Users), requests)
	if err != nil {
		return err
	}
	reg := c.Runtime.Metrics()
	fmt.Printf("drive: %d sent, %d ok (%.1f%%), %d crossed agents\n",
		res.Sent, res.OK, 100*res.OKFrac(), res.Crossed)
	fmt.Printf("latency: p50 %.1f ms, p99 %.1f ms (model time)\n",
		res.P50/cfg.TimeScale*1e3, res.P99/cfg.TimeScale*1e3)
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
	if res.OKFrac() < minOKFrac {
		return fmt.Errorf("ok fraction %.3f below required %.3f", res.OKFrac(), minOKFrac)
	}
	return nil
}
