package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
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

// expectRejected runs edgeserved once per case and fails unless each exits
// with status 2 naming the flag on stderr.
func expectRejected(t *testing.T, base []string, cases []rejectedFlag) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "edgeserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
		{"parallelism", []string{"-parallelism", "2"}},
		{"shard-threshold", []string{"-shard-threshold", "8"}},
		{"snapshot-dir", []string{"-snapshot-dir", t.TempDir()}},
		{"recover", []string{"-recover"}},
		{"journal", []string{"-journal", "-"}},
		{"expect-full-replans", []string{"-expect-full-replans", "4"}},
		{"chaos", []string{"-chaos", "crash:3"}},
		{"verify-recovery", []string{"-verify-recovery"}},
		// Several set: the first in flag order is the one named.
		{"journal", []string{"-verify-recovery", "-journal", "-"}},
	})
}

// TestRecoverRejectsChaosFlags: -recover resumes from the store and neither
// injects chaos nor verifies against a crash-free rerun, so the flags that
// ask for those are refused the same way, before the store is opened.
func TestRecoverRejectsChaosFlags(t *testing.T) {
	base := []string{"-trace", "testdata/smoke-trace.jsonl", "-snapshot-dir", t.TempDir(), "-recover"}
	expectRejected(t, base, []rejectedFlag{
		{"chaos", []string{"-chaos", "crash:3"}},
		{"verify-recovery", []string{"-verify-recovery"}},
		{"chaos", []string{"-verify-recovery", "-chaos", "slow:1:2:0.5"}},
	})
}
