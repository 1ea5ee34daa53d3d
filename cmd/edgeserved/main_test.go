package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"edgesurgeon/internal/config"
	"edgesurgeon/internal/serve"
)

// TestHTTPMux drives the -http handler: the runtime's two endpoints and the
// process's profiles answer on the one mux, no flag of their own.
func TestHTTPMux(t *testing.T) {
	data, err := os.ReadFile("testdata/smoke-scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := config.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := serve.New(serve.Config{Scenario: sc, Policy: serve.NeverReplan()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(newMux(sc, rt))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/plan", "/debug/pprof/cmdline", "/debug/pprof/heap"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// rejectedFlag is one command line a mode must refuse: args sets flags the
// mode would otherwise silently drop, name is the one stderr must name.
type rejectedFlag struct {
	name string
	args []string
}

// build compiles edgeserved into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "edgeserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// expectRejected runs edgeserved once per case and fails unless each exits
// with status 2 naming the flag on stderr.
func expectRejected(t *testing.T, base []string, cases []rejectedFlag) {
	t.Helper()
	bin := build(t)
	for _, c := range cases {
		args := append(append([]string{"-scenario", "testdata/smoke-scenario.json"}, base...), c.args...)
		var stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: got %v, want exit status 2 (stderr: %s)", c.args, err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), "-"+c.name+" ") {
			t.Errorf("%v: stderr does not name -%s: %s", c.args, c.name, stderr.String())
		}
	}
}

// TestLiveModeRejectsReplayFlags pins the -listen contract: a flag that only
// configures trace replay is refused with exit status 2 and named on stderr,
// before anything is planned or spawned, instead of being silently dropped.
func TestLiveModeRejectsReplayFlags(t *testing.T) {
	expectRejected(t, []string{"-listen", "127.0.0.1:0"}, []rejectedFlag{
		{"shard-threshold", []string{"-shard-threshold", "8"}},
		{"snapshot-dir", []string{"-snapshot-dir", t.TempDir()}},
		{"journal", []string{"-journal", "-"}},
		{"expect-full-replans", []string{"-expect-full-replans", "4"}},
		{"chaos", []string{"-chaos", "crash:3"}},
		{"verify-recovery", []string{"-verify-recovery"}},
		// Several set: the first in flag order is the one named.
		{"journal", []string{"-verify-recovery", "-journal", "-"}},
		// Live-mode numbers that would print Inf/NaN latencies or turn the
		// exit gate off.
		{"timescale", []string{"-timescale", "0"}},
		{"timescale", []string{"-timescale", "-1"}},
		{"timescale", []string{"-timescale", "NaN"}},
		{"timescale", []string{"-timescale", "+Inf"}},
		{"telemetry-period", []string{"-telemetry-period", "0"}},
		{"telemetry-period", []string{"-telemetry-period", "NaN"}},
		{"min-ok-frac", []string{"-min-ok-frac", "NaN"}},
		{"min-ok-frac", []string{"-min-ok-frac", "-0.1"}},
		{"min-ok-frac", []string{"-min-ok-frac", "1.5"}},
	})
}

// TestFlagSet is the flag ratchet: the flags -h prints must be exactly this
// list, so adding or removing one is a reviewed diff here.
func TestFlagSet(t *testing.T) {
	want := []string{
		"agent-bin", "agents", "chaos", "cpuprofile", "expect-full-replans",
		"fault", "horizon", "http", "journal", "listen",
		"memprofile", "min-ok-frac", "period", "policy", "record", "requests",
		"scenario", "shard-threshold", "snapshot-dir", "telemetry-period",
		"timescale", "trace", "verify-recovery", "workers",
	}
	if got := helpFlags(t, build(t)); !slices.Equal(got, want) {
		t.Errorf("flags -h prints:\n  %q\nwant:\n  %q", got, want)
	}
}

// helpFlags runs bin -h and returns the flag names it prints, in its order.
func helpFlags(t *testing.T, bin string) []string {
	t.Helper()
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	var names []string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	return names
}

// TestPolicyPresets: each -policy name is exactly its serve constructor's
// policy, and a name outside the five exits 2 listing all of them.
func TestPolicyPresets(t *testing.T) {
	want := map[string]serve.Policy{
		"always":     serve.AlwaysReplan(),
		"delta":      serve.Delta(),
		"hysteresis": serve.Hysteresis(),
		"never":      serve.NeverReplan(),
		"robust":     serve.Robust(),
	}
	if len(policies) != len(want) {
		t.Errorf("%d presets, want %d: %s", len(policies), len(want), policyNames())
	}
	for name, w := range want {
		preset, ok := policies[name]
		if !ok {
			t.Errorf("no -policy %s", name)
			continue
		}
		if got := preset(); !reflect.DeepEqual(got, w) {
			t.Errorf("-policy %s = %+v, want %+v", name, got, w)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("-policy %s: %v", name, err)
		}
	}

	var stderr bytes.Buffer
	cmd := exec.Command(build(t), "-scenario", "testdata/smoke-scenario.json",
		"-trace", "testdata/smoke-trace.jsonl", "-policy", "sometimes")
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-policy sometimes: got %v, want exit status 2 (stderr: %s)", err, stderr.String())
	}
	for name := range want {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("-policy sometimes: stderr does not list %s: %s", name, stderr.String())
		}
	}
}

// TestRecordRejectsBadSpan: a horizon or period RecordTrace cannot turn into
// a sample count exits 1 with its error, not a stack trace.
func TestRecordRejectsBadSpan(t *testing.T) {
	bin := build(t)
	for _, args := range [][]string{
		{"-horizon", "NaN"}, {"-period", "NaN"}, {"-horizon", "1e300", "-period", "1e-300"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-scenario", "testdata/smoke-scenario.json",
			"-record", filepath.Join(t.TempDir(), "t.jsonl")}, args...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.HasPrefix(stderr.String(), "edgeserved: sim: ") {
			t.Errorf("%v: got %v, want exit status 1 with RecordTrace's error (stderr: %s)", args, err, stderr.String())
		}
	}
}

// TestReplayResumesSnapshotDir: a replay of the trace's first 10 samples
// under a planner slowdown leaves its run in -snapshot-dir; replaying the
// whole trace on the same directory resumes at sample 10 — throttle entries
// in the WAL do not shift it — and -verify-recovery holds the result to a
// run that never stopped.
func TestReplayResumesSnapshotDir(t *testing.T) {
	bin := build(t)
	trace, err := os.ReadFile("testdata/smoke-trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(trace), "\n")
	prefix := filepath.Join(t.TempDir(), "prefix.jsonl")
	if err := os.WriteFile(prefix, []byte(strings.Join(lines[:10], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(tracePath string, extra ...string) string {
		t.Helper()
		args := append([]string{"-scenario", "testdata/smoke-scenario.json", "-trace", tracePath,
			"-snapshot-dir", dir, "-chaos", "slow:2:5:0.5"}, extra...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", extra, err, out)
		}
		return string(out)
	}
	run(prefix)
	out := run("testdata/smoke-trace.jsonl", "-verify-recovery", "-expect-full-replans", "4")
	for _, want := range []string{"resumed at sample 10\n", "verify-recovery: journal, metrics and final plan byte-identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
