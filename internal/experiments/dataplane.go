package experiments

import (
	"encoding/json"
	"fmt"
	"os"

	"edgesurgeon/internal/cluster"
	"edgesurgeon/internal/config"
	"edgesurgeon/internal/serve"
)

// e27Scenario authors the data-plane scenario through the same JSON schema
// the agent child processes parse, so the dispatcher and every agent
// resolve identical models, profiles, and fading traces. The uplinks fade
// (Markov over a 4x spread) so telemetry actually drifts and the replan
// policy arms have something to disagree about.
func e27Scenario(nUsers int) ([]byte, error) {
	doc := config.Scenario{
		HorizonSec: 600,
		Servers: []config.Server{
			{Name: "edge-gpu", Profile: "edge-gpu-t4", RTTMs: 4,
				Fading: &config.Fading{StatesMbps: []float64{22, 32, 46}, MeanDwell: 8, Seed: 271}},
			{Name: "edge-cpu", Profile: "edge-cpu-16c", RTTMs: 6,
				Fading: &config.Fading{StatesMbps: []float64{14, 22, 30}, MeanDwell: 10, Seed: 272}},
		},
	}
	// Light-to-mid models on weak-to-mid devices: offload is attractive
	// (the handoff path gets exercised) but every user keeps a sane local
	// fallback, so plan differences show up as tens of milliseconds, not
	// as a catastrophic local prefix that drowns the comparison.
	models := []string{"resnet18", "alexnet", "mobilenetv2"}
	devices := []string{"rpi4", "phone-soc"}
	for i := 0; i < nUsers; i++ {
		doc.Users = append(doc.Users, config.User{
			Name: fmt.Sprintf("u%02d", i), Model: models[i%len(models)],
			Device: devices[i%len(devices)], Rate: 2 + float64(i%3),
			DeadlineMs: 300, Difficulty: "easy-biased", Seed: int64(2000 + i),
		})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	if _, _, err := config.Parse(data); err != nil {
		return nil, fmt.Errorf("E27 scenario does not parse: %w", err)
	}
	return data, nil
}

// e27DataPlane runs the loopback cluster (real edgeagent processes, real
// TCP, the wire protocol end to end) under each replanning policy arm and
// reports the honest client-observed numbers: p50/p99 response latency,
// converted from wall seconds back to model milliseconds (divide by
// TimeScale) so they are comparable with planned latencies and deadlines.
func e27DataPlane(r *Report, nUsers, requests int, timeScale float64) error {
	r.Title = fmt.Sprintf("Loopback cluster: %d requests over %d users per policy arm", requests, nUsers)
	scenario, err := e27Scenario(nUsers)
	if err != nil {
		return err
	}

	// One agent binary shared by every arm; each cluster gets its own
	// scratch dir but reuses the build.
	binDir, err := os.MkdirTemp("", "e27-agent-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(binDir)
	bin, err := cluster.BuildAgentBin(binDir)
	if err != nil {
		return err
	}

	arms := []struct {
		name   string
		policy serve.Policy
	}{
		{"never", serve.NeverReplan()},
		{"hysteresis", serve.Hysteresis()},
		{"delta", serve.Delta()},
	}

	t := r.table("Client-observed outcome per replanning policy (loopback cluster, real TCP)",
		"arm", "sent", "ok", "crossed", "p50(ms)", "p99(ms)", "full", "delta")
	for _, arm := range arms {
		c, err := cluster.Start(cluster.Config{
			ScenarioJSON:    scenario,
			AgentBin:        bin,
			Policy:          arm.policy,
			TimeScale:       timeScale,
			TelemetryPeriod: 2,
			Seed:            42,
		})
		if err != nil {
			return fmt.Errorf("E27 %s: start: %w", arm.name, err)
		}
		res, err := cluster.Drive(c.Addr(), nUsers, requests)
		if err != nil {
			c.Close()
			return fmt.Errorf("E27 %s: drive: %w", arm.name, err)
		}
		full := c.Runtime.FullReplans()
		reg := c.Runtime.Metrics()
		deltaReplans := reg.Counter("serve.replans.delta").Value()
		pushes := reg.Counter("dataplane.alloc_pushes").Value()
		coalesced := reg.Counter("dataplane.telemetry_coalesced").Value()
		c.Close()

		p50ms := res.P50 / timeScale * 1e3
		p99ms := res.P99 / timeScale * 1e3
		okFrac := res.OKFrac()
		t.AddRow(arm.name, res.Sent, res.OK, res.Crossed,
			fmt.Sprintf("%.1f", p50ms), fmt.Sprintf("%.1f", p99ms),
			full, deltaReplans)
		r.Metrics["p50_ms_"+arm.name] = p50ms
		r.Metrics["p99_ms_"+arm.name] = p99ms
		r.Metrics["ok_frac_"+arm.name] = okFrac
		r.Metrics["full_replans_"+arm.name] = float64(full)
		r.Metrics["delta_replans_"+arm.name] = float64(deltaReplans)
		r.Metrics["alloc_pushes_"+arm.name] = float64(pushes)
		r.Metrics["telemetry_coalesced_"+arm.name] = float64(coalesced)
		if okFrac < 1 {
			r.note("WARNING: %s arm failed %d/%d requests", arm.name, res.Failed, res.Sent)
		}
	}
	r.Metrics["time_scale"] = timeScale
	r.note("p50/p99 are client wall latencies of the %d-worker closed loop converted to model ms (wall/TimeScale); its throughput is workers / (modelled latency x TimeScale), a property of the clock scale, and is not reported", cluster.Workers)
	r.note("the never arm plans once on mean rates and ignores fading drift; hysteresis and delta arms push refreshed allocations to the agents as telemetry drifts")
	r.note("replanning arms pay an honest tail cost on small hosts: a full replan's planning wall-time contends with the loopback plane for CPU, which the 1/TimeScale conversion magnifies into the p99 column")
	return nil
}
