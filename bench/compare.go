package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadReports reads a file of recorded runs (one JSON object per line) and
// groups the untraced ones by workload.
func loadReports(path string) (map[string][]runReport, hostInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, hostInfo{}, err
	}
	defer f.Close()
	byWorkload := map[string][]runReport{}
	var host hostInfo
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runReport
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, hostInfo{}, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if r.Traced {
			continue // end-to-end numbers come only from untraced runs
		}
		if host.NProc != 0 && r.Host.NProc != host.NProc {
			return nil, hostInfo{}, fmt.Errorf("%s mixes runs from %d and %d cores", path, host.NProc, r.Host.NProc)
		}
		host = r.Host
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	return byWorkload, host, sc.Err()
}

// failedShare is failed over attempted across a set of runs.
func failedShare(runs []runReport) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// metricValues collects one metric over a set of runs and counts the runs
// that did not record it.
func metricValues(runs []runReport, name string) (values []float64, missing int) {
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			values = append(values, m.Value)
		} else {
			missing++
		}
	}
	return values, missing
}

// verdict applies one metric's bound to two sets of values: base is the
// parent's runs, cand the change's. A candidate whose median is worse by
// more than the bound has regressed; where the parent's own run-to-run
// spread exceeds the bound the comparison cannot tell, unless every
// candidate run reads better than every parent run. No end-to-end metric is
// ever 0, so a parent median of 0 is a broken record, not a baseline.
func verdict(def metricDef, base, cand []float64) (string, float64) {
	mb, mc := median(base), median(cand)
	if mb == 0 {
		return "NO BASELINE", 0
	}
	worse := (mc - mb) / mb
	if def.Better == "higher" {
		worse = (mb - mc) / mb
	}
	if spread(base) > def.Bound {
		allBetter := true
		for _, c := range cand {
			for _, b := range base {
				if (def.Better == "higher" && c <= b) || (def.Better != "higher" && c >= b) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "better", worse
		}
		return "unresolved", worse
	}
	if worse > def.Bound {
		return "REGRESSED", worse
	}
	return "ok", worse
}

// compareFiles prints one row per end-to-end metric and workload and
// returns the exit code: non-zero on a regression, a higher failed share,
// an incorrect run, or runs that cannot be compared.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, hostA, err := loadReports(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s holds no untraced runs", pathA)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, hostB, err := loadReports(pathB)
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s holds no untraced runs", pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if hostA.NProc != hostB.NProc {
		fmt.Fprintf(os.Stderr, "bench: refusing to compare runs from %d cores with runs from %d cores\n", hostA.NProc, hostB.NProc)
		return 1
	}
	fmt.Fprintf(w, "A: %s (%s, %d cores)   B: %s (%s, %d cores)\n", pathA, hostA.Commit, hostA.NProc, pathB, hostB.Commit, hostB.NProc)
	fmt.Fprintf(w, "%-15s %-16s %5s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "runs", "median A", "median B", "worse", "spread A", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 && len(rb) == 0 {
			continue // a workload neither side ran
		}
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-15s has %d runs in A and %d in B: FAILED\n", wl.name, len(ra), len(rb))
			code = 1
			continue
		}
		for _, def := range endToEnd {
			va, missA := metricValues(ra, def.Name)
			vb, missB := metricValues(rb, def.Name)
			if missA+missB > 0 {
				fmt.Fprintf(w, "%-15s %-16s missing from %d runs of A and %d of B: FAILED\n", wl.name, def.Name, missA, missB)
				code = 1
				continue
			}
			v, worse := verdict(def, va, vb)
			if v == "REGRESSED" || v == "NO BASELINE" {
				code = 1
			}
			fmt.Fprintf(w, "%-15s %-16s %2d/%-2d %14.6g %14.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.name, def.Name, len(va), len(vb), median(va), median(vb), 100*worse, 100*spread(va), 100*def.Bound, v)
		}
		if fa, fb := failedShare(ra), failedShare(rb); fb > fa {
			fmt.Fprintf(w, "%-15s failed share rose from %.4g to %.4g: FAILED\n", wl.name, fa, fb)
			code = 1
		}
		for _, r := range rb {
			if !r.Correct {
				fmt.Fprintf(w, "%-15s seed %d failed its output checks: FAILED\n", wl.name, r.Seed)
				code = 1
			}
		}
	}
	return code
}
