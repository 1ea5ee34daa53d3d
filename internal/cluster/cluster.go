// Package cluster is the loopback harness for the networked data plane: it
// builds the edgeagent binary, spawns one agent child process per edge
// server plus an in-process wire dispatcher on 127.0.0.1 (port
// auto-assigned), waits on the readiness barrier, and tears everything down
// gracefully. It is what makes the whole plane testable in CI and what
// powers experiment E27's client-observed latency measurements.
package cluster

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"edgesurgeon/internal/agent"
	"edgesurgeon/internal/config"
	"edgesurgeon/internal/serve"
)

// Config describes one loopback cluster.
type Config struct {
	// ScenarioJSON is the shared scenario document; the dispatcher parses
	// it in-process and every agent child parses the same bytes from disk,
	// so all cost-model evaluations agree.
	ScenarioJSON []byte
	// Agents is how many agent processes to spawn, one per server index
	// starting at 0; 0 means one per scenario server. Negative means spawn
	// none — the multi-host head-node mode, where remote edgeagent
	// processes dial in — while Start still waits for one registration per
	// scenario server before declaring the cluster up.
	Agents int
	// AgentBin is the path to a prebuilt edgeagent binary; empty means
	// build one into Dir (see BuildAgentBin).
	AgentBin string
	// Listen is the dispatcher's TCP bind address; empty means
	// "127.0.0.1:0" (auto-assigned loopback port).
	Listen string
	// Policy is the serve runtime's replanning policy.
	Policy serve.Policy
	// TimeScale is wall-seconds per model-second for every process; 0
	// means 1 (the agent's default).
	TimeScale float64
	// TelemetryPeriod is the agents' sample period in model-seconds; 0
	// means 2 (the agent's default).
	TelemetryPeriod float64
	// Seed fixes the dispatcher's crossing sampler.
	Seed int64
	// Dir is the scratch directory for the scenario file and binary;
	// empty means a fresh temp dir removed on Close.
	Dir string
	// Logf, when set, receives harness and dispatcher logging.
	Logf func(format string, args ...any)
}

// Cluster is a running loopback deployment.
type Cluster struct {
	Runtime    *serve.Runtime
	Dispatcher *agent.Dispatcher

	dir    string
	ownDir bool
	agents []*exec.Cmd
}

// BuildAgentBin compiles cmd/edgeagent into dir and returns the binary
// path. Must run somewhere inside the module; uses only the local build
// cache.
func BuildAgentBin(dir string) (string, error) {
	bin := filepath.Join(dir, "edgeagent")
	cmd := exec.Command("go", "build", "-o", bin, "edgesurgeon/cmd/edgeagent")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("cluster: building edgeagent: %v\n%s", err, out)
	}
	return bin, nil
}

// Start brings up the dispatcher and all agent children and blocks until
// every agent has acknowledged its first allocation push.
func Start(cfg Config) (*Cluster, error) {
	sc, _, err := config.Parse(cfg.ScenarioJSON)
	if err != nil {
		return nil, err
	}
	nAgents := cfg.Agents
	if nAgents == 0 {
		nAgents = len(sc.Servers)
	}
	spawn := nAgents
	if nAgents < 0 {
		// Head-node mode: no local children; remote agents dial in, and the
		// readiness barrier still waits for all of them.
		spawn, nAgents = 0, len(sc.Servers)
	}
	if nAgents > len(sc.Servers) {
		return nil, fmt.Errorf("cluster: %d agents for %d servers", nAgents, len(sc.Servers))
	}

	c := &Cluster{dir: cfg.Dir}
	if c.dir == "" {
		c.dir, err = os.MkdirTemp("", "edgecluster-*")
		if err != nil {
			return nil, err
		}
		c.ownDir = true
	}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}

	scenarioPath := filepath.Join(c.dir, "scenario.json")
	if err := os.WriteFile(scenarioPath, cfg.ScenarioJSON, 0o644); err != nil {
		return fail(err)
	}
	bin := cfg.AgentBin
	if bin == "" && spawn > 0 {
		if bin, err = BuildAgentBin(c.dir); err != nil {
			return fail(err)
		}
	}

	c.Runtime, err = serve.New(serve.Config{Scenario: sc, Policy: cfg.Policy, Frontier: true})
	if err != nil {
		return fail(err)
	}
	c.Dispatcher, err = agent.StartDispatcher(agent.DispatcherConfig{
		Scenario:  sc,
		Runtime:   c.Runtime,
		Listen:    cfg.Listen,
		TimeScale: cfg.TimeScale,
		Seed:      cfg.Seed,
		Logf:      cfg.Logf,
	})
	if err != nil {
		return fail(err)
	}

	for s := 0; s < spawn; s++ {
		cmd := exec.Command(bin,
			"-scenario", scenarioPath,
			"-server", strconv.Itoa(s),
			"-dispatcher", c.Dispatcher.Addr(),
			"-timescale", strconv.FormatFloat(cfg.TimeScale, 'g', -1, 64),
			"-telemetry-period", strconv.FormatFloat(cfg.TelemetryPeriod, 'g', -1, 64),
			"-quiet",
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("cluster: starting agent %d: %w", s, err))
		}
		c.agents = append(c.agents, cmd)
	}
	if err := c.Dispatcher.WaitAgents(nAgents, 30*time.Second); err != nil {
		return fail(err)
	}
	if cfg.Logf != nil {
		cfg.Logf("cluster: %d agents ready at %s", nAgents, c.Dispatcher.Addr())
	}
	return c, nil
}

// Addr returns the dispatcher's listen address.
func (c *Cluster) Addr() string { return c.Dispatcher.Addr() }

// Close tears the cluster down: agents killed, dispatcher and runtime
// closed, scratch dir removed if the harness created it.
func (c *Cluster) Close() {
	for i, cmd := range c.agents {
		if cmd == nil {
			continue
		}
		c.agents[i] = nil
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
	if c.Dispatcher != nil {
		_ = c.Dispatcher.Close()
	}
	if c.Runtime != nil {
		_ = c.Runtime.Close()
	}
	if c.ownDir && c.dir != "" {
		_ = os.RemoveAll(c.dir)
	}
}
