package cluster

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"edgesurgeon/internal/config"
	"edgesurgeon/internal/serve"
)

// KillAgent forcibly terminates agent process i (the mid-run fault the
// evacuation test injects). The dispatcher notices via the dropped
// connection.
func (c *Cluster) KillAgent(i int) error {
	if i < 0 || i >= len(c.agents) || c.agents[i] == nil {
		return fmt.Errorf("cluster: no agent %d", i)
	}
	cmd := c.agents[i]
	c.agents[i] = nil
	if err := cmd.Process.Kill(); err != nil {
		return err
	}
	_ = cmd.Wait()
	return nil
}

// testScenarioJSON authors a two-server scenario through the same JSON
// schema the agent children will parse, so every process resolves identical
// models and profiles.
func testScenarioJSON(t *testing.T) []byte {
	t.Helper()
	doc := config.Scenario{
		HorizonSec: 60,
		Servers: []config.Server{
			{Name: "edge-gpu", Profile: "edge-gpu-t4", UplinkMbps: 40, RTTMs: 4},
			{Name: "edge-cpu", Profile: "edge-cpu-16c", UplinkMbps: 24, RTTMs: 6},
		},
		Users: []config.User{
			{Name: "u00", Model: "resnet18", Device: "rpi4", Rate: 2, DeadlineMs: 300, Difficulty: "easy-biased", Seed: 1001},
			{Name: "u01", Model: "alexnet", Device: "phone-soc", Rate: 3, DeadlineMs: 300, Difficulty: "easy-biased", Seed: 1002},
			{Name: "u02", Model: "mobilenetv2", Device: "jetson-nano", Rate: 4, DeadlineMs: 300, Difficulty: "easy-biased", Seed: 1003},
			{Name: "u03", Model: "vgg16", Device: "rpi4", Rate: 2, DeadlineMs: 300, Difficulty: "easy-biased", Seed: 1004},
		},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := config.Parse(data); err != nil {
		t.Fatalf("authored scenario does not parse: %v", err)
	}
	return data
}

// agentBin builds the edgeagent child binary (cheap after the first build
// thanks to the go build cache).
func agentBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping subprocess cluster test in -short mode")
	}
	bin, err := BuildAgentBin(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestLoopbackClusterEndToEnd is the satellite integration test: 2 agent
// processes + dispatcher over real TCP, traffic flowing, one agent killed
// mid-run, evacuation firing, and requests still completing afterwards.
func TestLoopbackClusterEndToEnd(t *testing.T) {
	c, err := Start(Config{
		ScenarioJSON:    testScenarioJSON(t),
		AgentBin:        agentBin(t),
		Policy:          serve.Hysteresis(),
		TimeScale:       0.002,
		TelemetryPeriod: 5,
		Seed:            42,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reg := c.Runtime.Metrics()
	res, err := Drive(c.Addr(), 4, DriveConfig{Requests: 60, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 {
		t.Fatalf("healthy cluster failed %d/%d requests", res.Failed, res.Sent)
	}
	if res.Crossed == 0 {
		t.Fatal("no request crossed to an agent; device-prefix handoff untested")
	}
	t.Logf("healthy: %d ok, %d crossed, %.0f rps, p50 %.1fms p99 %.1fms wall",
		res.OK, res.Crossed, res.RPS, res.P50*1e3, res.P99*1e3)

	// Fault injection: kill agent 0 mid-run and wait for the control plane
	// to evacuate its users.
	if err := c.KillAgent(0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for reg.Counter("dispatcher.evacuated").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("evacuation never fired after killing agent 0")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The surviving agent (or local fallback) must keep serving.
	res2, err := Drive(c.Addr(), 4, DriveConfig{Requests: 40, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res2.OK == 0 {
		t.Fatal("no request completed after the agent kill")
	}
	if res2.Failed > res2.Sent/2 {
		t.Fatalf("degraded cluster failed %d/%d requests (> half)", res2.Failed, res2.Sent)
	}
	t.Logf("after kill: %d ok / %d failed, evacuated=%d",
		res2.OK, res2.Failed, reg.Counter("dispatcher.evacuated").Value())
}
