// Command edgesim plans and simulates one edge-inference deployment
// described by a JSON scenario file.
//
// Usage:
//
//	edgesim -scenario deploy.json                 # joint planner
//	edgesim -scenario deploy.json -strategy edge-only
//	edgesim -scenario deploy.json -compare        # all strategies
//	edgesim -example                              # print a sample scenario
//
// The scenario schema is documented in internal/config.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"edgesurgeon/internal/config"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/stats"
)

const exampleScenario = `{
  "horizon": 60,
  "servers": [
    {"name": "edge-gpu", "profile": "edge-gpu-t4", "uplinkMbps": 40, "rttMs": 4},
    {"name": "edge-cpu", "profile": "edge-cpu-16c", "uplinkMbps": 25, "rttMs": 6}
  ],
  "users": [
    {"name": "cam1", "model": "resnet18", "device": "rpi4", "rate": 3,
     "deadlineMs": 300, "difficulty": "easy-biased"},
    {"name": "cam2", "model": "vgg16", "device": "rpi4", "rate": 1,
     "deadlineMs": 500, "difficulty": "easy-biased"},
    {"name": "drone", "model": "mobilenetv2", "device": "jetson-nano", "rate": 10,
     "deadlineMs": 100, "minAccuracy": 0.7},
    {"name": "phone", "model": "alexnet", "device": "phone-soc", "rate": 2,
     "deadlineMs": 250, "arrivals": "mmpp", "burstFactor": 4}
  ]
}`

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "path to JSON scenario")
		strategy     = flag.String("strategy", "joint", "planning strategy")
		compare      = flag.Bool("compare", false, "run every strategy and compare")
		example      = flag.Bool("example", false, "print an example scenario and exit")
		verbose      = flag.Bool("v", false, "print per-user decisions")
		discipline   = flag.String("discipline", "shares", "service discipline: shares | fcfs | ps")
		tracePath    = flag.String("trace", "", "write per-task records (JSON lines) to this file")
		keepRecords  = flag.Bool("keep-records", true, "retain per-task records; disable for very large -users runs")
		users        = flag.Int("users", 0, "scale the scenario to this many users by cycling its user list (0 = as written)")
	)
	flag.Parse()

	var disc sim.Discipline
	switch *discipline {
	case "shares":
		disc = sim.DedicatedShares
	case "fcfs":
		disc = sim.SharedFCFS
	case "ps":
		disc = sim.ProcessorSharing
	default:
		fmt.Fprintf(os.Stderr, "edgesim: unknown discipline %q (shares | fcfs | ps)\n", *discipline)
		os.Exit(2)
	}

	if *example {
		fmt.Println(exampleScenario)
		return
	}
	if *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "edgesim: -scenario required (try -example)")
		os.Exit(2)
	}
	data, err := os.ReadFile(*scenarioPath)
	if err != nil {
		fatal(err)
	}
	sc, horizon, err := config.Parse(data)
	if err != nil {
		fatal(err)
	}
	if *users > 0 {
		scaleUsers(sc, *users)
	}
	if *tracePath != "" && !*keepRecords {
		fmt.Fprintln(os.Stderr, "edgesim: -trace requires -keep-records=true")
		os.Exit(2)
	}

	names := []string{*strategy}
	if *compare {
		names = config.StrategyNames()
	}
	t := stats.NewTable("Results over "+fmt.Sprintf("%.0fs (%s, %d users)", horizon, *discipline, len(sc.Users)),
		"strategy", "objective", "feasible", "mean(ms)", "p50(ms)", "p95(ms)", "p99(ms)", "deadline-rate", "mean-acc", "energy(J/task)", "events/sec")
	for _, name := range names {
		s, err := config.Strategy(name)
		if err != nil {
			fatal(err)
		}
		plan, err := s.Plan(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edgesim: %s: %v\n", name, err)
			continue
		}
		cfg := joint.BuildSimConfig(sc, plan, horizon, disc)
		cfg.KeepRecords = *keepRecords
		t0 := time.Now()
		res, err := sim.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edgesim: %s: %v\n", name, err)
			continue
		}
		eps := float64(res.Events) / time.Since(t0).Seconds()
		lat := res.Latencies()
		t.AddRow(name, plan.Objective, plan.Feasible,
			lat.Mean()*1000, lat.P50()*1000, lat.P95()*1000, lat.P99()*1000,
			res.DeadlineRate(), res.MeanAccuracy(), res.MeanDeviceEnergy(), eps)
		if *tracePath != "" && !*compare {
			if err := writeTrace(*tracePath, res); err != nil {
				fatal(err)
			}
		}
		if *verbose {
			fmt.Printf("-- %s decisions --\n", name)
			for i, d := range plan.Decisions {
				fmt.Printf("  %-8s %-40s server=%d f=%.3f b=%.3f expLat=%.1fms acc=%.3f\n",
					sc.Users[i].Name, d.Plan.String(), d.Server,
					d.ComputeShare, d.BandwidthShare, d.Latency()*1000, d.Eval.Accuracy)
			}
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

// scaleUsers grows (or shrinks) the scenario's population to n by cycling
// the parsed user list with fresh names and seeds, so a small JSON scenario
// reproduces the E21-style heavy-traffic regime from the CLI.
func scaleUsers(sc *joint.Scenario, n int) {
	base := len(sc.Users)
	if base == 0 || n <= base {
		sc.Users = sc.Users[:n]
		return
	}
	for i := base; i < n; i++ {
		u := sc.Users[i%base]
		u.Name = fmt.Sprintf("%s+%d", u.Name, i/base)
		u.Seed += int64(7919 * (i / base))
		sc.Users = append(sc.Users, u)
	}
}

func writeTrace(path string, res *sim.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range res.Records {
		if err := enc.Encode(&res.Records[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "edgesim:", err)
	os.Exit(1)
}
