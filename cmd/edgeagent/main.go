// Command edgeagent runs one edge-server agent of the networked data
// plane: it parses the shared scenario, dials the dispatcher
// (cmd/edgeserved -listen), registers for its server index, and then
// executes pushed allocations — suffix inference under GPU-share
// scheduling, telemetry streaming — until the dispatcher goes away.
//
// Usage:
//
//	edgeagent -scenario cluster.json -server 0 -dispatcher 127.0.0.1:7701
//
// With -http ADDR the agent also serves its own profiles under
// /debug/pprof/ (go tool pprof http://ADDR/debug/pprof/profile?seconds=8).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"edgesurgeon/internal/agent"
	"edgesurgeon/internal/config"
)

func main() {
	var (
		scenarioPath    = flag.String("scenario", "", "path to the shared JSON scenario (required)")
		server          = flag.Int("server", -1, "edge-server index this agent serves (required)")
		dispatcher      = flag.String("dispatcher", "", "dispatcher address host:port (required)")
		timeScale       = flag.Float64("timescale", 1, "wall-seconds per model-second")
		telemetryPeriod = flag.Float64("telemetry-period", 2, "model-seconds between telemetry samples")
		httpAddr        = flag.String("http", "", "serve /debug/pprof/ on this address (empty = off)")
		quiet           = flag.Bool("quiet", false, "suppress lifecycle logging")
	)
	flag.Parse()
	if err := run(*scenarioPath, *server, *dispatcher, *timeScale, *telemetryPeriod, *httpAddr, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "edgeagent:", err)
		os.Exit(1)
	}
}

// newMux builds the -http handler: the process's own profiles, the way
// edgeserved serves its under the same paths.
func newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

func run(scenarioPath string, server int, dispatcher string, timeScale, telemetryPeriod float64, httpAddr string, quiet bool) error {
	if scenarioPath == "" || server < 0 || dispatcher == "" {
		return fmt.Errorf("-scenario, -server and -dispatcher are required")
	}
	data, err := os.ReadFile(scenarioPath)
	if err != nil {
		return err
	}
	sc, _, err := config.Parse(data)
	if err != nil {
		return err
	}
	logf := log.Printf
	if quiet {
		logf = func(string, ...any) {}
	}
	if httpAddr != "" {
		// Bind before dialing, so a taken port fails the start, not a
		// profile request minutes later.
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		logf("edgeagent: serving /debug/pprof/ on %s", ln.Addr())
		go func() { _ = http.Serve(ln, newMux()) }()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return agent.Run(ctx, agent.Config{
		Scenario:        sc,
		Server:          server,
		Dispatcher:      dispatcher,
		TimeScale:       timeScale,
		TelemetryPeriod: telemetryPeriod,
		Logf:            logf,
	})
}
