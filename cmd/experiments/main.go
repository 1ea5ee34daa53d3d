// Command experiments regenerates the reconstructed evaluation artifacts
// (tables and figures E1-E27; see DESIGN.md for the index).
//
// Usage:
//
//	experiments                 # run everything
//	experiments -run E3,E10     # run a subset
//	experiments -list           # list experiments
//	experiments -csv dir        # also export every table as CSV into dir
//	experiments -run E21 -bench-json BENCH_sim.json   # perf trajectory
//	experiments -run E23 -quick -bench-json BENCH_planner.json \
//	    -require-metrics E23.speedup_vs_monolithic,E23.gap_worst_pct   # CI smoke
//	experiments -scenario deploy.json   # plan and simulate a JSON scenario
//
// -scenario runs one JSON scenario (schema in internal/config) under the
// strategies every E-series figure compares, over the scenario's horizon,
// and prints one row per strategy plus the joint plan's per-user decisions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"edgesurgeon/internal/experiments"
	"edgesurgeon/internal/telemetry"
)

func main() {
	var (
		runList    = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		csvDir     = flag.String("csv", "", "directory to export tables as CSV")
		benchJSON  = flag.String("bench-json", "", "write machine-readable metrics (events/sec, speedups, allocs) of the experiments that report them to this JSON file")
		quick      = flag.Bool("quick", false, "substitute CI-sized variants for experiments that define one (same metric keys, shrunken inputs)")
		requireStr = flag.String("require-metrics", "", "comma-separated EID.metric keys that must be present in the collected metrics; missing keys exit non-zero (CI guard for -bench-json consumers)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		scenario   = flag.String("scenario", "", "plan and simulate this JSON scenario under the comparison strategies instead of running experiments")
	)
	flag.Parse()
	if *scenario != "" && *runList != "" {
		fmt.Fprintln(os.Stderr, "-scenario and -run are exclusive: -scenario runs the one scenario, not experiments")
		os.Exit(2)
	}

	stopProfiles, err := telemetry.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *list {
		for _, s := range experiments.Specs {
			fmt.Println(s.ID)
		}
		return
	}

	specs := experiments.Specs
	switch {
	case *scenario != "":
		s, err := experiments.ScenarioSpec(*scenario)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
			os.Exit(1)
		}
		specs = []experiments.Spec{s}
	case *runList != "":
		specs = nil
		for _, id := range strings.Split(*runList, ",") {
			s, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", strings.TrimSpace(id))
				os.Exit(2)
			}
			specs = append(specs, s)
		}
	}
	metrics := map[string]map[string]float64{}
	for _, s := range specs {
		start := time.Now()
		rep, err := s.Report(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", s.ID, err)
			os.Exit(1)
		}
		fmt.Print(rep.String())
		fmt.Printf("(%s completed in %.1fs)\n\n", s.ID, time.Since(start).Seconds())
		if *csvDir != "" {
			if err := exportCSV(*csvDir, rep); err != nil {
				fmt.Fprintf(os.Stderr, "csv export: %v\n", err)
				os.Exit(1)
			}
		}
		if len(rep.Metrics) > 0 {
			metrics[rep.ID] = rep.Metrics
		}
	}
	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, metrics); err != nil {
			fmt.Fprintf(os.Stderr, "bench json: %v\n", err)
			os.Exit(1)
		}
	}
	if *requireStr != "" {
		if err := requireMetrics(metrics, strings.Split(*requireStr, ",")); err != nil {
			fmt.Fprintf(os.Stderr, "require-metrics: %v\n", err)
			os.Exit(1)
		}
	}
}

// requireMetrics checks that every "EID.metric" key was actually collected —
// the CI guard that keeps a refactor from silently dropping a benchmark
// scalar that dashboards or regression gates consume.
func requireMetrics(metrics map[string]map[string]float64, keys []string) error {
	for _, key := range keys {
		key = strings.TrimSpace(key)
		if key == "" {
			continue
		}
		id, name, ok := strings.Cut(key, ".")
		if !ok {
			return fmt.Errorf("malformed key %q (want EID.metric)", key)
		}
		if _, found := metrics[id][name]; !found {
			return fmt.Errorf("metric %q missing from the collected results (experiment not run, or key renamed)", key)
		}
	}
	return nil
}

// writeBenchJSON records the perf-trajectory scalars (E21's events/sec,
// speedup, allocs/event, cores) keyed by experiment ID. An existing file
// is merged, not clobbered: experiments this invocation ran replace their
// own entries and every other experiment's entry survives, so the
// planner-smoke (E23) and frontier-smoke (E24) CI steps can share one
// BENCH_planner.json.
func writeBenchJSON(path string, metrics map[string]map[string]float64) error {
	merged := map[string]map[string]float64{}
	if prev, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(prev, &merged); err != nil {
			return fmt.Errorf("existing %s is not a bench-json file: %w", path, err)
		}
	}
	for id, m := range metrics {
		merged[id] = m
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	// Atomic write: a CI step killed mid-write must not leave a truncated
	// JSON file that poisons the next run's read-merge-write cycle.
	return telemetry.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

func exportCSV(dir string, rep *experiments.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range rep.Tables {
		name := fmt.Sprintf("%s_%d.csv", strings.ToLower(rep.ID), i)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
