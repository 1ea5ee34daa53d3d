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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
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
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	reg := experiments.Registry()
	if *quick {
		for id, runner := range experiments.QuickVariants() {
			reg[id] = runner
		}
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	ids := experiments.IDs()
	if *runList != "" {
		ids = strings.Split(*runList, ",")
	}
	metrics := map[string]map[string]float64{}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, ok := reg[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		rep, err := runner()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(rep.String())
		fmt.Printf("(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
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
