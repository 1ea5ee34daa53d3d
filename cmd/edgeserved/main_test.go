package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

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
// with status 2 naming the flag on stderr. A run that accepts its flags is
// killed after a minute: live mode without -requests serves until stopped.
func expectRejected(t *testing.T, base []string, cases []rejectedFlag) {
	t.Helper()
	bin := build(t)
	for _, c := range cases {
		args := append(append([]string{"-scenario", "testdata/smoke-scenario.json"}, base...), c.args...)
		var stderr bytes.Buffer
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		cmd := exec.CommandContext(ctx, bin, args...)
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

// TestLiveModeRejectsReplayFlags pins each mode's contract, -listen's
// first: a flag that configures another mode, or a second mode selector, is
// refused with exit status 2 and named on stderr, before anything is
// planned, recorded or spawned, instead of being silently dropped.
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
		{"min-ok-frac", []string{"-min-ok-frac", "NaN"}},
		{"min-ok-frac", []string{"-min-ok-frac", "-0.1"}},
		{"min-ok-frac", []string{"-min-ok-frac", "1.5"}},
		{"fault", []string{"-fault", "crash:0:1:2"}},
		{"horizon", []string{"-horizon", "60"}},
		{"record", []string{"-record", filepath.Join(t.TempDir(), "t.jsonl")}},
		{"trace", []string{"-trace", "testdata/smoke-trace.jsonl"}},
	})
	expectRejected(t, []string{"-trace", "testdata/smoke-trace.jsonl"}, []rejectedFlag{
		{"requests", []string{"-requests", "50"}},
		{"agents", []string{"-agents", "3"}},
		{"agent-bin", []string{"-agent-bin", "edgeagent"}},
		{"timescale", []string{"-timescale", "0"}},
		{"min-ok-frac", []string{"-min-ok-frac", "0.9"}},
		{"fault", []string{"-fault", "crash:0:1:2"}},
		{"horizon", []string{"-horizon", "60"}},
		{"record", []string{"-record", filepath.Join(t.TempDir(), "t.jsonl")}},
	})
	// Record mode takes neither -policy nor -http, and writes no trace.
	out := filepath.Join(t.TempDir(), "t.jsonl")
	expectRejected(t, []string{"-record", out}, []rejectedFlag{
		{"chaos", []string{"-chaos", "crash:3"}},
		{"journal", []string{"-journal", filepath.Join(t.TempDir(), "j.txt")}},
		{"policy", []string{"-policy", "robust"}},
		{"http", []string{"-http", "127.0.0.1:0"}},
		{"snapshot-dir", []string{"-snapshot-dir", t.TempDir()}},
		{"expect-full-replans", []string{"-expect-full-replans", "4"}},
		{"shard-threshold", []string{"-shard-threshold", "8"}},
		{"verify-recovery", []string{"-verify-recovery"}},
		{"requests", []string{"-requests", "50"}},
		{"timescale", []string{"-timescale", "0.5"}},
		{"listen", []string{"-listen", "127.0.0.1:0"}},
	})
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused record run left %s behind (%v)", out, err)
	}
}

// TestFailedRunWritesProfiles: a replay that fails its -expect-full-replans
// gate exits 1 and still leaves both profiles written.
func TestFailedRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	cmd := exec.Command(build(t), "-scenario", "testdata/smoke-scenario.json",
		"-trace", "testdata/smoke-trace.jsonl", "-expect-full-replans", "99",
		"-cpuprofile", cpu, "-memprofile", mem)
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("got %v, want exit status 1", err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s after a failed run: %v, want a non-empty profile", filepath.Base(path), err)
		}
	}
}

// TestFlagSet is the flag ratchet: the flags -h prints must be exactly this
// list, so adding or removing one is a reviewed diff here.
func TestFlagSet(t *testing.T) {
	want := []string{
		"agent-bin", "agents", "chaos", "cpuprofile", "expect-full-replans",
		"fault", "horizon", "http", "journal", "listen",
		"memprofile", "min-ok-frac", "policy", "record", "requests",
		"scenario", "shard-threshold", "snapshot-dir",
		"timescale", "trace", "verify-recovery",
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

// TestRecordRejectsBadSpan: a horizon RecordTrace cannot turn into a sample
// count at the 5 s record period exits 1 with its error, not a stack trace.
func TestRecordRejectsBadSpan(t *testing.T) {
	bin := build(t)
	for _, args := range [][]string{{"-horizon", "NaN"}, {"-horizon", "1e300"}} {
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

// TestSpecGrammar drives -fault (record mode) and -chaos (replay mode)
// through the built binary: every form of each grammar is accepted, and a
// malformed spec exits 2 naming its flag.
func TestSpecGrammar(t *testing.T) {
	bin := build(t)
	fault := func(spec string) []string {
		return []string{"-record", filepath.Join(t.TempDir(), "t.jsonl"), "-fault", spec}
	}
	chaos := func(spec string) []string {
		return []string{"-trace", "testdata/smoke-trace.jsonl", "-snapshot-dir", t.TempDir(), "-chaos", spec}
	}
	run := func(args []string) (string, error) {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-scenario", "testdata/smoke-scenario.json"}, args...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		return stderr.String(), err
	}
	for _, args := range [][]string{
		fault("crash:1:60:100"), fault("outage:0:10:20.5"), fault("brownout:0:30:90:0.5"),
		chaos("crash:3"), chaos("slow:2:5:0.5"), chaos("corrupt:4:nan"),
		chaos("corrupt:4:negative"), chaos("corrupt:4:time"), chaos("corrupt:4:width"),
	} {
		if stderr, err := run(args); err != nil {
			t.Errorf("%v: %v, want it accepted (stderr: %s)", args, err, stderr)
		}
	}
	for _, c := range []rejectedFlag{
		{"fault", fault("crash:0:1")},            // too few fields
		{"fault", fault("brownout:0:1:2:0.5:9")}, // too many fields
		{"fault", fault("flood:0:1:2")},          // unknown kind
		{"fault", fault("crash:1.5:1:2")},        // non-integer server index
		{"fault", fault("brownout:0:1:2:NaN")},   // NaN factor
		{"fault", fault("brownout:0:1:2")},       // brownout without its factor
		{"fault", fault("outage:0:20:10")},       // empty window
		{"chaos", chaos("crash")},                // too few fields
		{"chaos", chaos("slow:2:5")},             // too few fields
		{"chaos", chaos("corrupt:3:nan:1")},      // too many fields
		{"chaos", chaos("stall:3")},              // unknown kind
		{"chaos", chaos("crash:1.5")},            // non-integer sample
		{"chaos", chaos("slow:2:5:NaN")},         // NaN factor
		{"chaos", chaos("slow:5:5:0.5")},         // empty slow window
		{"chaos", chaos("corrupt:3:zero")},       // unknown corruption
	} {
		stderr, err := run(c.args)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: got %v, want exit status 2 (stderr: %s)", c.args, err, stderr)
		} else if !strings.Contains(stderr, "-"+c.name) {
			t.Errorf("%v: stderr does not name -%s: %s", c.args, c.name, stderr)
		}
	}
}

// TestHTTPBindsFirst: with the -http address already taken, live and replay
// mode each exit 1 naming the address before any work: no cluster comes up
// and no trace is replayed.
func TestHTTPBindsFirst(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	addr := held.Addr().String()
	bin := build(t)
	for _, mode := range [][]string{
		{"-listen", "127.0.0.1:0", "-timescale", "0.002", "-requests", "50"},
		{"-trace", "testdata/smoke-trace.jsonl"},
	} {
		var stdout, stderr bytes.Buffer
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		cmd := exec.CommandContext(ctx, bin, append([]string{"-scenario", "testdata/smoke-scenario.json",
			"-http", addr}, mode...)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), addr) {
			t.Errorf("%v: got %v, want exit status 1 naming %s (stderr: %s)", mode, err, addr, stderr.String())
		}
		for _, work := range []string{"cluster up", "replayed"} {
			if strings.Contains(stdout.String(), work) {
				t.Errorf("%v: a taken -http address still let the run start (%q on stdout):\n%s", mode, work, stdout.String())
			}
		}
	}
}
