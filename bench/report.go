package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// hostInfo stamps every recorded run with the machine and toolchain it ran
// on; runs from different core counts are not comparable.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func hostStamp() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Kernel: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	// The acceptance checkout is not a git repository; the stamp is then
	// whatever BENCH_COMMIT says, or unknown. The ceiling keeps git from
	// looking for a repository above the directory the benchmark runs in.
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		h.Commit = c
	} else if cwd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
		if out, err := cmd.Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is one workload run as recorded (-record) and compared
// (-compare).
type runReport struct {
	Workload  string                 `json:"workload"`
	Host      hostInfo               `json:"host"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	WallSec   float64                `json:"wall_s"`

	defs  []metricDef
	notes []string
}

// runWorkload runs w once — untraced for the end-to-end metrics, or traced
// plus the layer drivers for the per-layer ones — and checks that every
// metric the mode owes is there.
func runWorkload(ctx context.Context, w workloadDef, cfg *runConfig) runReport {
	r := runReport{Workload: w.name, Traced: cfg.rec != nil, Metrics: map[string]metricValue{}}
	t0 := time.Now()
	endSpan := cfg.rec.region("workload."+w.name, "bench", nil)
	out, err := w.run(ctx, cfg)
	endSpan(nil)
	if err != nil {
		out = newOutcome()
		out.problem("%s: %v", w.name, err)
	}
	values := out.e2e
	r.defs = endToEnd
	if cfg.rec != nil {
		r.defs = perLayer
		values = out.layer
		if cfg.driven == nil {
			// The drivers do not depend on the workload: once per invocation.
			cfg.driven, cfg.drivenProblems = runLayerDrivers(ctx, cfg)
		}
		out.problems = append(out.problems, cfg.drivenProblems...)
		for name, v := range cfg.driven {
			if _, own := values[name]; !own {
				values[name] = v
			}
		}
		kept, dropped := cfg.rec.counts()
		values["trace.spans"], values["trace.dropped"] = float64(kept), float64(dropped)
	}
	for _, def := range r.defs {
		v, ok := values[def.Name]
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			out.problem("metric %s is %v", def.Name, v)
			v = 0
		case cfg.rec == nil && (!ok || v == 0):
			out.problem("end-to-end metric %s was not measured", def.Name)
		}
		r.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	r.Attempted, r.Failed = max(out.attempted, 1), out.failed
	if out.attempted == 0 {
		r.Failed = 1
	}
	r.Problems = out.problems
	r.Correct = len(out.problems) == 0
	r.notes = out.notes
	r.WallSec = time.Since(t0).Seconds()
	return r
}

// print writes the run for a human: every metric by name with its unit,
// the timings' tails and counts, and the failed checks.
func (r *runReport) print(w io.Writer) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %d s  %s  ops %d  failed %d  correct %t  (%.1f s wall)\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Attempted, r.Failed, r.Correct, r.WallSec)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, def := range r.defs {
		m := r.Metrics[def.Name]
		fmt.Fprintf(w, "  %-14s %-34s %16.6g %s\n", r.Workload, def.Name, m.Value, m.Unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// driverLine is the object the acceptance driver reads from the last line of
// standard output.
func (r *runReport) driverLine() map[string]any {
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
}
